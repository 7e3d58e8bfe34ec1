"""Span tracing of hybridrelay's layers, from outside the program.

For the length of a `Tracer` block, every public module-level function of
the traced modules is replaced by a wrapper that records one span per call:
name, thread, start, end and the enclosing span on the same thread.  Every
module of the package that bound the function by name gets the wrapper, so
`from .x import f` call sites are traced too.  The originals are restored on
exit.  Spans stay in memory and are summarized after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

PACKAGE = "hybridrelay"
TRACED_MODULES = ("channel", "hybrid", "metrics", "asymptotics", "diagnostics", "cli")

# Calls the Monte-Carlo engine makes per trial; engine self time is what
# remains of monte_carlo_rate's wall time outside them.
ENGINE_CHILDREN = (
    "channel.sample_realization",
    "hybrid.build_processor",
    "hybrid.build_full_digital",
)
ASYMPTOTE_LAWS = ("asymptotics.rate_case1", "asymptotics.rate_case2", "asymptotics.rate_case3")


def _realization_bytes(args, kwargs, result) -> int:
    """Bytes of the arrays a realization holds, computed from their shapes."""
    return sum(getattr(result, f.name).nbytes for f in dataclasses.fields(result))


def _is_quantized(args, kwargs, result) -> bool:
    quant = args[2] if len(args) > 2 else kwargs.get("quant")
    return quant is not None


def _trial_counts(args, kwargs, result):
    requested = args[1] if len(args) > 1 else kwargs["n_trials"]
    return requested, result.n_trials


# Per-function facts recorded with a finished span, from arguments and result.
NOTES: Dict[str, Callable] = {
    "channel.sample_realization": _realization_bytes,
    "hybrid.build_analog": _is_quantized,
    "metrics.monte_carlo_rate": _trial_counts,
}


class Span:
    __slots__ = ("name", "thread", "t0", "t1", "parent", "note")

    def __init__(self, name: str, thread: int, t0: float, parent: Optional["Span"]):
        self.name = name
        self.thread = thread
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.note = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{short}.{attr}"
                    wrappers[id(value)] = self._wrap(name, value, NOTES.get(name))
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, local, clock = self.spans, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, threading.get_ident(), clock(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def summarize(spans: List[Span]) -> Dict[str, tuple]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    by_name: Dict[str, List[Span]] = {}
    child_time: Dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) + (s.t1 - s.t0)

    def durations(name: str) -> np.ndarray:
        return np.array([s.t1 - s.t0 for s in by_name.get(name, [])])

    def self_times(name: str) -> np.ndarray:
        return np.array([s.t1 - s.t0 - child_time.get(id(s), 0.0)
                         for s in by_name.get(name, [])])

    def pct(values: np.ndarray, q: float, scale: float) -> float:
        return float(np.percentile(values, q) * scale) if values.size else 0.0

    out: Dict[str, tuple] = {}
    for name in ("channel.sample_realization", "hybrid.build_analog"):
        d = durations(name)
        out[f"{name}.ms_p50"] = (pct(d, 50, 1e3), "ms")
        out[f"{name}.ms_p99"] = (pct(d, 99, 1e3), "ms")
        out[f"{name}.calls"] = (len(d), "count")
    out["channel.sample_realization.bytes_computed"] = (
        sum(s.note for s in by_name.get("channel.sample_realization", [])), "B")
    analog = by_name.get("hybrid.build_analog", [])
    out["hybrid.build_analog.quant_call_share"] = (
        sum(1 for s in analog if s.note) / len(analog) if analog else 0.0, "ratio")
    for name in ("channel.trial_rng", "channel.sample_small_scale",
                 "hybrid.quantize_phase", "hybrid.compute_alpha",
                 "hybrid.build_full_digital", "diagnostics.orthonormality_parts",
                 "diagnostics.fh_parts"):
        out[f"{name}.ms_p50"] = (pct(durations(name), 50, 1e3), "ms")
    out["hybrid.build_processor.self_ms_p50"] = (
        pct(self_times("hybrid.build_processor"), 50, 1e3), "ms")
    laws = np.concatenate([durations(n) for n in ASYMPTOTE_LAWS])
    out["asymptotics.rate.us_p50"] = (pct(laws, 50, 1e6), "us")
    out.update(_engine_metrics(spans, by_name.get("metrics.monte_carlo_rate", [])))
    out["cli.emit_csv.ms"] = (float(durations("cli.emit_csv").sum() * 1e3), "ms")
    out["cli.parse_config.ms"] = (float(durations("cli.parse_config").sum() * 1e3), "ms")
    out["cli.main.self_s"] = (float(self_times("cli.main").sum()), "s")
    return out


def _engine_metrics(spans: List[Span], runs: List[Span]) -> Dict[str, tuple]:
    """Engine self time, worker busy share and useful-trial ratio.

    Cells run one after another, so an engine child span belongs to the
    monte_carlo_rate call whose interval contains its start, whichever
    pool thread ran it.
    """
    children = sorted((s for s in spans if s.name in ENGINE_CHILDREN), key=lambda s: s.t0)
    starts = np.array([s.t0 for s in children])
    self_s = busy_s = slot_s = 0.0
    requested = used = 0
    for run in runs:
        if run.note is None:  # the call raised
            continue
        lo, hi = np.searchsorted(starts, [run.t0, run.t1])
        kids = children[lo:hi]
        wall = run.t1 - run.t0
        self_s += wall - _covered([(k.t0, k.t1) for k in kids])
        busy_s += sum(k.t1 - k.t0 for k in kids)
        slot_s += wall * max(1, len({k.thread for k in kids}))
        requested += run.note[0]
        used += run.note[1]
    return {
        "metrics.monte_carlo_rate.self_ms_per_trial": (
            self_s * 1e3 / requested if requested else 0.0, "ms"),
        "metrics.monte_carlo_rate.worker_busy_share": (
            busy_s / slot_s if slot_s else 0.0, "ratio"),
        "metrics.useful_trial_ratio": (used / requested if requested else 0.0, "ratio"),
    }
