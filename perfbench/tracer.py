"""Spans around propmod's public functions, recorded from outside the package.

``Tracer.install()`` wraps every public module-level function of each layer
(the modules of ``src/propmod``) and rebinds the wrapper at every place the
name is bound.  Modules import each other with ``from .x import y``, so a
wrapper left only in its home module would miss the internal calls.
``ModularInequality.member`` is patched on the class and only counted.

A span is (id, name, start, end, parent id, op id).  Spans stay in memory
until the pass ends.  Self time is a span's duration minus the durations of
its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "core", "rays", "plane", "frobenius", "properties",
          "diophantine", "general", "oracle")

# Leaf helpers called up to millions of times in one pass: they are
# counted, not timed, because a span would cost more than the call and
# swell the parent's time.  Their time stays in the caller's self time.
COUNT_ONLY = frozenset({"core.member", "core.dominates", "core.grlex_key",
                        "core.mod_reduce", "frobenius.in_group"})


# Arguments, iterables, turned into a list before the call so that they
# can be counted.
MATERIALIZE = {"plane.minimalize": "candidates"}

# Counters read off a call's arguments and result, per wrapped function.
STATS = {
    "plane.enumerate_region": lambda bound, res: {"points_out": len(res)},
    "plane.minimalize": lambda bound, res: {
        "candidates_in": len(bound.arguments["candidates"]), "accepted": len(res.points)},
    "frobenius.frobenius_vectors": lambda bound, res: {"delta_size": len(res.delta)},
    "properties.apery_intersection": lambda bound, res: {
        "elements": len(res.elements), "maximal": len(res.maximal)},
    "diophantine.minimal_solutions": lambda bound, res: {"points_out": len(res.points)},
    "oracle.brute_members": lambda bound, res: {
        "window_points": bound.arguments["window"].size()},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.stats: Counter = Counter()
        self.op = None
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, seconds spent in children]

    def _timed(self, name: str, fn):
        stat = STATS.get(name)
        signature = inspect.signature(fn) if stat else None
        cap_error = importlib.import_module("propmod.core").CapExceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stat:
                bound = signature.bind(*args, **kwargs)
                if name in MATERIALIZE:
                    arg = MATERIALIZE[name]
                    bound.arguments[arg] = list(bound.arguments[arg])
                    args, kwargs = bound.args, bound.kwargs
            parent = self._stack[-1] if self._stack else None
            frame = [next(self._ids), 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                self.stats[f"{name}.cap_exceeded"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                self.spans.append((frame[0], name, start, end,
                                   parent[0] if parent else None, self.op))
            if stat:
                self.stats.update({f"{name}.{k}": v for k, v in stat(bound, result).items()})
            return result
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn):
        return self._counted(name, fn) if name in COUNT_ONLY else self._timed(name, fn)

    def install(self) -> int:
        """Wrap every public function of every layer; returns the rebind count."""
        package = importlib.import_module("propmod")
        modules = {layer: importlib.import_module(f"propmod.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        rebound = 0
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    rebound += 1
        cls = modules["core"].ModularInequality
        cls.member = self._wrap("core.member", cls.member)
        return rebound + 1

    def summary(self) -> dict:
        """Flat ``module.function.stat`` numbers for the whole pass."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": s for name, s in self.self_s.items()})
        out.update(self.stats)
        return out
