"""Spans and counters recorded from outside the program.

The tracer replaces public module-level functions of ``topdown`` with
wrappers, in every ``topdown`` module that binds them (so ``from .x import f``
copies are covered too), and restores the originals on uninstall.  A *span*
probe records ``(name, start, end, parent, op)`` plus the call's arguments and
result; a *counter* probe only counts calls, for functions too small and too
hot to time one by one.  Everything stays in memory; per-layer metrics are
derived after each operation, outside any timed region.

A probe whose function no longer exists is recorded as absent with a reason,
and every metric that depends on it is reported as absent rather than failing
the run.
"""
from __future__ import annotations

import importlib
import inspect
import logging
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# qualified function -> layer; these get spans
SPAN_PROBES: dict[str, str] = {
    "topdown.cli.main": "cli",
    "topdown.model.load_sequence": "model",
    "topdown.model.save_predictions": "model",
    "topdown.pipeline.run_pipeline": "pipeline",
    "topdown.pipeline.sweep": "pipeline",
    "topdown.ensemble.fuse_average": "ensemble",
    "topdown.ensemble.fuse_expert": "ensemble",
    "topdown.tracker.track_sequence": "tracker",
    "topdown.tracker.solve_assignment": "tracker",
    "topdown.tracker.prune_sequence_keypoints": "tracker",
    "topdown.metrics.evaluate_ap": "metrics",
    "topdown.metrics.evaluate_mot": "metrics",
    "topdown.metrics.match_poses_frame": "metrics",
    "topdown.synth.generate": "synth",
}
# called per box or per pose pair: counted, not timed
COUNTER_PROBES: tuple[str, ...] = (
    "topdown.geometry.bbox_from_keypoints",
    "topdown.geometry.iou",
)
# layers whose self times partition an operation (synth only runs in set-up)
OP_LAYERS: tuple[str, ...] = ("cli", "model", "pipeline", "ensemble", "tracker", "metrics")

FALLBACK_LOGGER = "topdown.pipeline"
FALLBACK_TEXT = "using first model"


@dataclass(slots=True)
class Span:
    index: int
    name: str
    start: float
    end: float
    parent: int  # index into the tracer's span list, -1 for a root
    op: int
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _FallbackCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if FALLBACK_TEXT in record.getMessage():
            self.count += 1


def _resolve(qualified: str) -> Callable:
    module_name, _, attr = qualified.rpartition(".")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr)
    if not callable(fn):
        raise TypeError(f"{qualified} is not callable")
    return fn


class Tracer:
    """Installs and removes the probes; holds the spans and counters they record."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter[str] = Counter()
        self.absent: dict[str, str] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []
        self._originals: dict[str, Callable] = {}
        self._fallbacks = _FallbackCounter()
        for qualified in (*SPAN_PROBES, *COUNTER_PROBES):
            try:
                self._originals[qualified] = _resolve(qualified)
            except (ImportError, AttributeError, TypeError) as exc:
                self.absent[qualified] = f"{type(exc).__name__}: {exc}"

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("probes already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "topdown" or name.startswith("topdown."))
        ]
        for qualified, fn in self._originals.items():
            if qualified in SPAN_PROBES:
                wrapper = self._span_wrapper(qualified, fn)
            else:
                wrapper = self._counter_wrapper(qualified, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        logging.getLogger(FALLBACK_LOGGER).addHandler(self._fallbacks)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()
        logging.getLogger(FALLBACK_LOGGER).removeHandler(self._fallbacks)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(index, name, 0.0, 0.0, stack[-1] if stack else -1, self.op, args, kwargs)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-operation bookkeeping -----------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.calls.clear()
        self._fallbacks.count = 0

    def op_trace(self, op: int) -> "OpTrace":
        """Spans of operation ``op`` and the counters since its ``begin_op``."""
        return OpTrace(
            spans=[s for s in self.spans if s.op == op],
            calls=Counter(self.calls),
            fallbacks=self._fallbacks.count,
            absent=dict(self.absent),
            originals=self._originals,
        )

    def release(self, op: int) -> None:
        """Drop the arguments and results that operation ``op``'s spans hold."""
        for span in self.spans:
            if span.op == op:
                span.args, span.kwargs, span.result = (), {}, None

    def dump_spans(self) -> list[list]:
        """Spans as plain rows: name, start, end, parent, op."""
        return [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]


@dataclass
class OpTrace:
    """Spans and counters of one operation."""

    spans: list[Span]
    calls: Counter
    fallbacks: int
    absent: dict[str, str]
    originals: dict[str, Callable]
    cache: dict = field(default_factory=dict)

    def named(self, qualified: str) -> list[Span]:
        return [s for s in self.spans if s.name == qualified]

    def inclusive(self, *qualified: str) -> float:
        return sum(s.duration for q in qualified for s in self.named(q))

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        own = {s.index: s.duration for s in self.spans}
        for span in self.spans:
            if span.parent in own:
                own[span.parent] -= span.duration
        return own

    def self_time(self, *qualified: str) -> float:
        own = self.self_times()
        return sum(own[s.index] for s in self.spans if s.name in qualified)

    def layer_self_times(self) -> dict[str, float]:
        own = self.self_times()
        out = dict.fromkeys(OP_LAYERS, 0.0)
        for span in self.spans:
            layer = SPAN_PROBES[span.name]
            out[layer] = out.get(layer, 0.0) + own[span.index]
        return out

    def op_time(self) -> float:
        """Summed duration of the operation's root spans (the ``cli.main`` call)."""
        indices = {s.index for s in self.spans}
        return sum(s.duration for s in self.spans if s.parent not in indices)

    def bind(self, span: Span) -> inspect.BoundArguments:
        """The span's call arguments by parameter name, defaults applied."""
        bound = inspect.signature(self.originals[span.name]).bind(*span.args, **span.kwargs)
        bound.apply_defaults()
        return bound
