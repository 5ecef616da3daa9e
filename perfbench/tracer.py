"""Layer spans recorded from outside afkit, by wrapping its public functions.

Every ``afkit.*`` module binding of a wrapped function is replaced, so a call
from one layer into another (``afkit.resolution.restrict``,
``afkit.cli.parse_apx``, ...) opens a child span.  Spans stay in memory and
are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time

WRAPPED = (
    ("core", "parse_apx"),
    ("core", "serialize_apx"),
    ("core", "restrict"),
    ("core", "sccs"),
    ("resolution", "minimal_relevant"),
    ("resolution", "grd_star"),
    ("resolution", "verify_grd_star"),
    ("semantics", "enumerate_extensions"),
    ("semantics", "credulous"),
    ("semantics", "skeptical"),
    ("semantics", "verify"),
    ("encodings", "emit_job"),
    ("generators", "generate"),
    ("cli", "main"),
)
OP_SPAN = "bench.op"

# span record fields
NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    """Span recorder; install() wraps afkit, remove() restores it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op, count]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op: str | None = None

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, count: int | None = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNT] = count
        self._stack.pop()

    def begin_op(self, key: str) -> int:
        self.op = key
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> None:
        # an op that raised may leave wrapper spans open; close them too
        while self._stack and self._stack[-1] != idx:
            self.close(self._stack[-1])
        self.close(idx)
        self.op = None

    # -- wrapping

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "afkit" or name.startswith("afkit."))]
        for layer, fname in WRAPPED:
            original = getattr(sys.modules[f"afkit.{layer}"], fname)
            wrapper = self._wrap(original, f"{layer}.{fname}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        tracer = self
        if name == "semantics.enumerate_extensions":
            from afkit.semantics import Semantics

            @functools.wraps(fn)
            def wrapper(af, semantics, *args, **kwargs):
                try:
                    tag = Semantics(semantics).value
                except ValueError:
                    tag = str(semantics)
                idx = tracer.open(f"{name}.{tag}")
                result = None
                try:
                    result = fn(af, semantics, *args, **kwargs)
                    return result
                finally:
                    tracer.close(idx, None if result is None else len(result))
            return wrapper

        if name == "resolution.verify_grd_star":
            @functools.wraps(fn)
            def wrapper(af, u, *, trace=None):
                frames = [] if trace is None else trace
                before = len(frames)
                idx = tracer.open(name)
                try:
                    return fn(af, u, trace=frames)
                finally:
                    tracer.close(idx, len(frames) - before)
            return wrapper

        counters = {
            "core.parse_apx": ("args", len),  # APX names are ASCII
            "resolution.grd_star": ("result", len),
            "encodings.emit_job": ("result", lambda job: len(job.instance) + 1 + len(job.program)),
        }
        source, measure = counters.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = measure(args[0]) if source == "args" else None
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if source == "result" and result is not None:
                    count = measure(result)
                tracer.close(idx, count)
        return wrapper

    # -- output

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "count": count}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans: list[list], layer_names: list[str], base: int = 0) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one run's spans.

    `spans` may be a slice of a longer list that starts at index `base` and
    holds whole op trees.
    """
    if base:
        spans = [s[:PARENT] + [s[PARENT] - base if s[PARENT] >= 0 else -1] + s[PARENT + 1:] for s in spans]
    own = self_times(spans)
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        self_ms[name] = self_ms.get(name, 0.0) + t * 1000.0
        calls[name] = calls.get(name, 0) + 1
        if s[COUNT] is not None:
            counts[name] = counts.get(name, 0) + s[COUNT]

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    children_enum: set[int] = {
        s[PARENT] for s in spans if s[PARENT] >= 0 and s[NAME].startswith("semantics.enumerate_extensions.")
    }
    decisions = [i for i, s in enumerate(spans) if s[NAME] in ("semantics.credulous", "semantics.skeptical")]
    relevant_in_grd_star = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "resolution.minimal_relevant" and under(i, "resolution.grd_star")
    )
    extensions = sum(v for k, v in counts.items() if k.startswith("semantics.enumerate_extensions."))
    derived = {
        "core.parse_apx.bytes": counts.get("core.parse_apx", 0),
        "encodings.emit_job.bytes": counts.get("encodings.emit_job", 0),
        "semantics.extensions": extensions,
        "resolution.minimal_relevant_per_extension":
            relevant_in_grd_star / max(counts.get("resolution.grd_star", 0), 1),
        "resolution.rbg_levels":
            counts.get("resolution.verify_grd_star", 0) / max(calls.get("resolution.verify_grd_star", 0), 1),
        "semantics.decide_enum_share": sum(1 for i in decisions if i in children_enum) / max(len(decisions), 1),
    }
    out: dict[str, float] = {}
    for metric in layer_names:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric.endswith(".self_ms"):
            out[metric] = self_ms.get(metric[: -len(".self_ms")], 0.0)
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[: -len(".calls")], 0)
    return out
