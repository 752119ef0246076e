"""Span tracing from outside the program.

``Tracer`` wraps named functions and methods of a package, including every
module-level alias of a function (``prgd.validation.sample_ball`` is the same
object as ``prgd.geometry.sample_ball``, so both names are wrapped). Each call
records one span: name, start, end, parent and thread. A span that starts in
a thread with no open span of its own takes as parent the innermost open span
of the thread that installed the tracer; in this program worker threads are
only started from there. Spans stay in memory until ``take`` hands them over.

``reduce_spans`` turns one operation's spans into per-name counts, inclusive
time and self time. Self time is the span's duration minus the part of it
its children cover. Where spans of several threads are innermost at the same
instant, that instant is shared equally among them, so self times of all
names sum to the wall time the spans cover and never exceed it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

Extra = Callable[[tuple, dict, Any], dict]


def _argument(fn: Callable, name: str) -> Callable[[tuple, dict], Any]:
    """Reader of argument ``name`` (default applied) of calls to ``fn``."""
    signature = inspect.signature(fn)

    def read(args: tuple, kwargs: dict) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get(name)

    return read


def rows_drawn(fn: Callable) -> Extra:
    size = _argument(fn, "size")

    def extra(args, kwargs, result):
        n = size(args, kwargs)
        return {"rows": 1 if n is None else int(n)}

    return extra


def probes_scanned(fn: Callable) -> Extra:
    probes = _argument(fn, "w_list")

    def extra(args, kwargs, result):
        w_list = probes(args, kwargs)
        if not hasattr(w_list, "__len__"):
            return {}
        points = np.asarray(w_list, dtype=float).reshape(len(w_list), -1)
        return {"probes": len(points), "distinct": len(np.unique(points, axis=0))}

    return extra


def samples_drawn(fn: Callable) -> Extra:
    samples = _argument(fn, "samples")
    return lambda args, kwargs, result: {"samples": int(samples(args, kwargs))}


def bytes_written(fn: Callable) -> Extra:
    # the trace file holds the lines joined by newlines plus a final newline
    return lambda args, kwargs, result: {"bytes": sum(len(line) + 1 for line in result)}


# name -> factory of the extra recorded per call (None: timing only)
TARGETS: dict[str, Callable[[Callable], Extra] | None] = {
    "cli.main": None,
    "special.reg_inc_beta": None,
    "accountant.per_step_delta": None,
    "accountant.radius_for_target": None,
    "geometry.sample_ball": rows_drawn,
    "geometry.sample_sphere_surface": rows_drawn,
    "optimizer.prgd_run": None,
    "optimizer.LossModel.mean_loss": None,
    "optimizer.estimate_sensitivity": probes_scanned,
    "optimizer.RunTrace.serialize_lines": bytes_written,
    "validation.mc_tv_distance": samples_drawn,
    "validation.surface_noise_distinguisher": samples_drawn,
}
SAMPLERS = ("geometry.sample_ball", "geometry.sample_sphere_surface")
ORACLES = ("validation.mc_tv_distance", "validation.surface_noise_distinguisher")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    extra: Callable[[], dict] | None  # counts recorded with the call, computed on demand


class Tracer:
    def __init__(self, package: str, targets: dict[str, Callable[[Callable], Extra] | None] = TARGETS):
        self.package = package
        self.targets = targets
        self.absent: list[str] = []
        self._spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._home = threading.get_ident()
        self._saved: list[tuple[Any, str, Any]] = []

    def _resolve(self, name: str):
        """(owner, attribute, original) for ``name``, or None if it is gone."""
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{self.package}.{module_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            return owner, path[-1], getattr(owner, path[-1])
        except (ImportError, AttributeError):
            return None

    def install(self) -> None:
        self.absent = []
        self._home = threading.get_ident()
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for name, factory in self.targets.items():
            found = self._resolve(name)
            if found is None or not callable(found[2]):
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, factory(original) if factory else None)
            if inspect.isclass(owner):
                self._saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, alias, value))
                        setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, name: str, fn: Callable, extra: Extra | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = tracer._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                home = tracer._stacks.get(tracer._home, [])[-1:]
                parent = home[0] if home else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer._spans.append(Span(sid, name, start, end, parent, thread, None))
                raise
            end = time.perf_counter()
            stack.pop()
            # extras are computed when the spans are reduced, outside every span
            info = functools.partial(extra, args, kwargs, result) if extra is not None else None
            tracer._spans.append(Span(sid, name, start, end, parent, thread, info))
            return result

        return traced


@dataclass
class SpanStats:
    """Per-name totals over the spans of one or more operations."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    inclusive: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    self_time: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    extra: dict[str, dict[str, float]] = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    child_calls: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))
    wait: float = 0.0  # oracle time with no sampler running on any thread

    def add(self, other: "SpanStats") -> None:
        for name, value in other.calls.items():
            self.calls[name] += value
        for name, value in other.inclusive.items():
            self.inclusive[name] += value
        for name, value in other.self_time.items():
            self.self_time[name] += value
        for name, values in other.extra.items():
            for key, value in values.items():
                self.extra[name][key] += value
        for pair, value in other.child_calls.items():
            self.child_calls[pair] += value
        self.wait += other.wait


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _overlap(interval: tuple[float, float], merged: list[tuple[float, float]]) -> float:
    lo, hi = interval
    return sum(max(0.0, min(hi, b) - max(lo, a)) for a, b in merged)


def reduce_spans(spans: list[Span]) -> SpanStats:
    stats = SpanStats()
    by_id = {s.id: s for s in spans}
    for s in spans:
        stats.calls[s.name] += 1
        stats.inclusive[s.name] += s.end - s.start
        for key, value in (s.extra() if s.extra else {}).items():
            stats.extra[s.name][key] += value
        if s.parent in by_id:
            stats.child_calls[(by_id[s.parent].name, s.name)] += 1

    # sweep: at each instant the innermost open spans share its time equally
    events = sorted([(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans])
    open_children: dict[int, int] = defaultdict(int)
    open_spans: set[int] = set()
    innermost: set[int] = set()
    previous = None
    for moment, starting, sid in events:
        if innermost and moment > previous:
            share = (moment - previous) / len(innermost)
            for inner in innermost:
                stats.self_time[by_id[inner].name] += share
        previous = moment
        parent = by_id[sid].parent
        parent_open = parent in open_spans
        if starting:
            open_spans.add(sid)
            innermost.add(sid)
            if parent_open:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            open_spans.discard(sid)
            innermost.discard(sid)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)

    # the oracles run on the calling thread; their samplers may run on workers
    samplers = _union([(s.start, s.end) for s in spans if s.name in SAMPLERS])
    for s in spans:
        if s.name in ORACLES:
            stats.wait += (s.end - s.start) - _overlap((s.start, s.end), samplers)
    return stats
