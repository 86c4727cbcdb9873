"""Span tracer that wraps the program's public functions from outside.

A target is a function (or a class's ``__init__``) of one layer.  The
tracer replaces it in the namespace of every loaded ``decrement`` module
that holds it, except the module that defines it, so a span is recorded
each time another layer calls in.  Calls inside a layer (for example the
recursion of ``logic.models``) stay unwrapped.  Spans are not kept one by
one: each target accumulates its call count, inclusive seconds, self
seconds (inclusive minus the time of spans it caused) and an item count.
A function that returns an iterator is timed per ``next`` and counts the
items it yields.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    items: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None, keep_durations=False, iterates=False):
        """Return fn wrapped in a span called name.

        count(result) -> int adds to the span's item count; keep_durations
        keeps each call's seconds; iterates=True times the iterator fn
        returns, one span per item.
        """
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        def close(t0):
            dt = clock() - t0
            child = stack.pop()
            stat.seconds += dt
            stat.self_seconds += dt - child
            if stack:
                stack[-1] += dt
            return dt

        def timed_iter(it):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    close(t0)
                    return
                except BaseException:
                    close(t0)
                    raise
                close(t0)
                stat.items += 1
                yield item

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = close(t0)
                stat.calls += 1
                if keep_durations:
                    stat.durations.append(dt)
            if count is not None:
                stat.items += count(result)
            if iterates:
                return timed_iter(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, name, holder, attr, own=False, **options) -> None:
        """Wrap holder.attr in every decrement module that imported it.

        The module defining the target is skipped unless own=True, which
        also patches holder itself: needed where a layer calls the target
        internally at a boundary worth timing, or where holder is a class.
        """
        original = getattr(holder, attr)
        wrapped = self.wrap(name, original, **options)
        home_module = sys.modules.get(getattr(original, "__module__", None))
        modules = [m for n, m in sys.modules.items() if n == "decrement" or n.startswith("decrement.")]
        homes = []
        for mod in [holder] + modules:
            if any(mod is h for h in homes) or (mod is home_module and not own):
                continue
            if mod is holder or getattr(mod, "__dict__", {}).get(attr) is original:
                homes.append(mod)
        for home in homes:
            self._patched.append((home, attr, original))
            setattr(home, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            home, attr, original = self._patched.pop()
            setattr(home, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
