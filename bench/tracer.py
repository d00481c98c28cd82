"""In-process span tracer for the traced run.

``Tracer.install()`` wraps, from outside the package, every public
function of every orbicurves module, the arithmetic methods of
``PowerSeries`` and ``GaussianRational``, and the retry helper of the
CLI.  Names bound by ``from .x import f`` in other modules are replaced
too, so a call is traced whichever module makes it.  ``uninstall()``
puts the originals back.

A span is (id, parent id, name, start ns, end ns, job index).  Spans are
kept in memory and written by ``write()``.  Scalar arithmetic calls are
too many to keep one span each: they are counted and timed into the
per-name totals and their time is subtracted from the enclosing span's
self time, but no span record is kept for them.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

MODULES = (
    "exact",
    "lens",
    "surface",
    "germ",
    "curvecalc",
    "chern_index",
    "chains",
    "wps",
    "cli",
)
POWER_SERIES_METHODS = (
    "__add__",
    "__sub__",
    "__neg__",
    "__mul__",
    "scale",
    "shift",
    "invert_unit",
    "divide",
    "nth_root_of_unit_series",
)
GAUSSIAN_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__")
SPAN_LIMIT = 100_000


def _method_name(name: str) -> str:
    return name.strip("_")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = -1
        self._stack: list[list[int]] = []  # [span id, child ns] per open call
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _call(self, name, keep, fn, args, kwargs, on_return=None):
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1][0] if self._stack else 0
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = [0, 0, 0]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if keep:
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span_id, parent, name, start, end, self.job))
                else:
                    self.dropped += 1
        if on_return is not None:
            on_return(result)
        return result

    def _wrap(self, name, fn, keep=True, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(name, keep, fn, args, kwargs, on_return)

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"orbicurves.{m}") for m in MODULES}
        package = importlib.import_module("orbicurves")
        replaced = {}
        for short, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                replaced[fn] = self._wrap(f"{short}.{attr}", fn, on_return=self._hook(short, attr))
        cli = modules["cli"]
        replaced[cli._with_retries] = self._traced_retries(cli._with_retries)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(module, attr, replaced[value])
        series = modules["germ"].PowerSeries
        for attr in POWER_SERIES_METHODS:
            name = f"germ.PowerSeries.{_method_name(attr)}"
            self._patch(series, attr, self._wrap(name, getattr(series, attr)))
        gaussian = modules["exact"].GaussianRational
        for attr in GAUSSIAN_METHODS:
            name = f"exact.GaussianRational.{_method_name(attr)}"
            self._patch(gaussian, attr, self._wrap(name, getattr(gaussian, attr), keep=False))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hook(self, module: str, attr: str):
        """Work counts read off return values."""
        if (module, attr) == ("cli", "emit_report"):
            return lambda text: self.count("cli.emit_report.bytes", len(text.encode()))
        if (module, attr) == ("chains", "load_complex"):
            return lambda w: self.count("chains.simplices", len(w.simplices))
        if (module, attr) == ("chains", "load_group_complex"):
            return lambda g: self.count("chains.simplices", len(g.complex.simplices))
        return None

    def _traced_retries(self, original):
        """Count every attempt of the precision ladder and the ones that
        returned a report."""
        tracer = self

        @functools.wraps(original)
        def traced(compute, start):
            def attempt(trunc):
                tracer.count("cli.retry.attempts")
                result = compute(trunc)
                tracer.count("cli.retry.successes")
                return result

            return original(attempt, start)

        return traced

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans), dropped=self.dropped)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
