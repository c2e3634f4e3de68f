"""Span tracer installed from outside the package.

Each traced function is replaced, at every module attribute that refers
to it, by a wrapper that opens a span around the call.  Spans are
aggregated in memory per (name, parent name), so hot functions such as
`core.encode` cost one dict update per call, not one record; the
aggregate is written out once, when the pass ends.

A layer's self time is its span time minus the time of the spans opened
inside it.  Generator functions are timed per `next()`: the time the
consumer spends between items belongs to the consumer, not the generator.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [n, total, child]
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.seen: dict[str, list] = {}
        self._stack: list[list] = []  # [name, start, child time]

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _exit(self) -> None:
        end = _clock()
        name, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        key = (name, parent[0] if parent else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += child
        if parent is not None:
            parent[2] += duration

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None, items_counter=None):
        """Timed stand-in for fn.  on_result(tracer, args, kwargs, result)
        records counts from the return value; items_counter names the
        counter that a generator's yielded items go to."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    if items_counter:
                        tracer.count(items_counter)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str, targets: dict) -> None:
        """Wrap each `module.function` in targets at every name it is
        reachable by in the package's loaded modules.  targets maps
        "module.function" to a dict of wrap() keyword arguments."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target, options in targets.items():
            module_name, func_name = target.split(".")
            original = getattr(sys.modules[f"{package}.{module_name}"], func_name)
            wrapped = self.wrap(target, original, **options)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    # -- results ---------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (name, _parent), (_n, total, child) in self.spans.items():
            out[name] = out.get(name, 0.0) + total - child
        return out

    def as_dict(self) -> dict:
        return {
            "spans": [
                {"name": name, "parent": parent, "n": n, "total_s": total, "child_s": child}
                for (name, parent), (n, total, child) in sorted(
                    self.spans.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "calls": self.calls,
            "counters": self.counters,
        }
