"""Spans around the public functions of the earmetrics modules, recorded from
outside the package.

:meth:`Tracer.install` replaces every public function name in each module's
namespace with a wrapper, including names a module imported from another
one (``earmetrics.coherence.stft`` is the same function as
``earmetrics.audio.stft``), so calls between modules are seen too. A span is
named after the function's home module, as in ``audio.stft``. Spans are kept
in memory and written out at the end of the run.

Self time is a span's duration minus the part of its interval that its child
spans cover. A span opened on a worker thread with no open span of its own
takes as parent the innermost open span of the thread that runs the op, so
the files a thread pool works on are children of the batch that started them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType

import numpy as np

STFT = "audio.stft"
LAYERS = ("audio", "weighting", "stereo", "phase", "spectral", "loudness", "coherence", "pipeline", "cli")


def package_modules() -> list[ModuleType]:
    """The ``earmetrics`` package and its layer modules, whose names get wrapped."""
    return [importlib.import_module("earmetrics")] + [
        importlib.import_module(f"earmetrics.{layer}") for layer in LAYERS
    ]


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0


def _traceable(name: str, obj: object) -> bool:
    return (
        not name.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("earmetrics.")
    )


def span_name(fn: object) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Collects spans of the ops run between :meth:`begin_op` and :meth:`end_op`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[ModuleType, str, object]] = []
        self._op = 0
        self._op_stack: list[Span] = []
        # per op: (span id, input channel, StftConfig) of every STFT call
        self._stft_inputs: list[tuple[int, np.ndarray, object]] = []
        self._stft_bytes: dict[int, int] = {}
        self.stft_keys: dict[int, tuple] = {}

    def install(self, modules: list[ModuleType]) -> None:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if _traceable(name, obj):
                    setattr(module, name, self._wrapper(obj))
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                try:
                    parent = self._op_stack[-1].id
                except IndexError:
                    parent = None
            span = Span(name, next(self._ids), parent, self._op, threading.get_ident(), 0.0)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if name == STFT:
                channel, config = args[0], args[1]
                self._stft_inputs.append((span.id, channel, config))
                self._stft_bytes[span.id] = result.bins.nbytes
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_stack = self._stack()

    def end_op(self) -> None:
        """Key each STFT call of the op by a digest of its input samples and
        its config, then drop the references to the inputs."""
        digests: dict[tuple, str] = {}
        for span_id, channel, config in self._stft_inputs:
            # the inputs are still referenced, so equal addresses mean equal samples
            face = np.asarray(channel).__array_interface__
            where = (face["data"][0], face["shape"], face["strides"], face["typestr"])
            if where not in digests:
                arr = np.ascontiguousarray(channel, dtype=np.float64)
                digests[where] = hashlib.blake2b(arr.data, digest_size=16).hexdigest()
            self.stft_keys[span_id] = (digests[where], config)
        self._stft_inputs.clear()
        self._op_stack = []

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def stft_mb(self, spans: list[Span]) -> float:
        return sum(self._stft_bytes[s.id] for s in spans if s.name == STFT) / 1e6

    def write(self, path: Path, t0: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                doc = asdict(s)
                doc["start"] = round(s.start - t0, 9)
                doc["end"] = round(s.end - t0, 9)
                fh.write(json.dumps(doc) + "\n")


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, [])) for s in spans}


def layer_metrics(tracer: Tracer, op: int, jobs: int) -> dict[str, float]:
    """Per-layer counts and self times of one op.

    Besides ``<span>.calls`` and ``<span>.self_s`` for every span name, this
    gives the distinct STFT inputs, the megabytes of STFT output, and for a
    curation batch the summed wait from batch start to each file's start and
    the busy ratio of the worker pool.
    """
    spans = tracer.op_spans(op)
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[f"{s.name}.calls"] = out.get(f"{s.name}.calls", 0) + 1
        out[f"{s.name}.self_s"] = out.get(f"{s.name}.self_s", 0.0) + own[s.id]
    out[f"{STFT}.distinct"] = len({tracer.stft_keys[s.id] for s in spans if s.name == STFT})
    out[f"{STFT}.mb_out"] = tracer.stft_mb(spans)
    for batch in (s for s in spans if s.name == "pipeline.run_batch"):
        files = [s for s in spans if s.parent == batch.id]
        out["pipeline.file.wait_s"] = sum(f.start - batch.start for f in files)
        out["pipeline.busy_ratio"] = sum(f.end - f.start for f in files) / ((batch.end - batch.start) * jobs)
    return out
