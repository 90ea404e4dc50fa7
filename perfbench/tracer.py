"""Span recorder for the traced run.

:func:`install` wraps every public function of each layer, plus
``CombType.violations`` and the ``TorsionPoint`` constructor, so that each
call records a span (name, start, end, parent).  A function wrapped in a
decorator such as ``functools.cache`` counts as a function of its layer, so
a cached call is still counted.  A name is patched wherever
it is looked up: in its own module, in every module that imported it by
name, and in ``verify.ALL_CHECKS``, which holds the checks themselves.
Spans stay in memory; :meth:`Recorder.summary` computes self time per span
name at the end of the process.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("cli", "verify", "assembly", "census", "trees", "lattice", "torsion", "covers", "rationals")


class Recorder:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1, counts as a call]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._shapes: dict[int, object] = {}
        self.check_spans: dict[str, str] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's loop body between
            # two items is not charged to the generator; only the first
            # resumption counts as a call
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                first = True
                while True:
                    span = [name, clock(), 0.0, stack[-1] if stack else -1, first]
                    first = False
                    stack.append(len(spans))
                    spans.append(span)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        span[2] = clock()
                        stack.pop()
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, True]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, list] = {}
        for index, (name, start, end, _, counted) in enumerate(self.spans):
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += counted
            entry[1] += end - start
            entry[2] += end - start - child[index]
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in names.items()},
            "distinct_shapes": len(set(self._shapes.values())),
            "checks": self.check_spans,
        }

    def dump(self, path: str, op: int) -> None:
        """Write every span as one JSON line; ``op`` identifies the request."""
        with open(path, "a") as out:
            for index, (name, start, end, parent, _) in enumerate(self.spans):
                out.write(json.dumps({
                    "op": op, "id": index, "parent": parent, "name": name,
                    "start_us": round(start * 1e6, 3), "end_us": round(end * 1e6, 3),
                }) + "\n")


def _is_function(obj) -> bool:
    """A plain function, or a callable wrapping one, such as functools.cache."""
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__module__")


def install(recorder: Recorder) -> None:
    package = importlib.import_module("tangentia")
    modules = {layer: importlib.import_module(f"tangentia.{layer}") for layer in LAYERS}

    wrapped = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if _is_function(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if _is_function(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    verify = modules["verify"]
    verify.ALL_CHECKS = tuple((name, wrapped.get(fn, fn)) for name, fn in verify.ALL_CHECKS)
    recorder.check_spans = {name: f"verify.{fn.__name__}" for name, fn in verify.ALL_CHECKS}

    point = modules["torsion"].TorsionPoint
    point.__init__ = recorder.wrap("torsion.TorsionPoint", point.__init__)

    # remember each validated shape by identity, cheaply; distinct values
    # are counted once, in summary()
    shapes = recorder._shapes
    comb = modules["trees"].CombType
    traced_violations = recorder.wrap("trees.CombType.violations", comb.violations)

    def violations(self):
        shapes[id(self)] = self
        return traced_violations(self)

    comb.violations = violations
