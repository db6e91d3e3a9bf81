"""Call timing from outside the program.

`Tracer` replaces module attributes (the names `mdsd.cli` and `mdsd.mc` look
up at call time) with wrappers that time each call. Spans nest through a
stack, so a span's self time is its duration minus the time its child spans
cover. Everything stays in memory until `summary` is read.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Candidate tail percentiles, highest first; the first with at least
# TAIL_BEYOND calls above it is reported.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def tail_percentile(calls: int) -> float:
    """The highest candidate percentile with at least TAIL_BEYOND calls
    beyond it, or 100 (the maximum) when there are too few calls."""
    for pct in TAIL_PERCENTILES:
        if calls * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return 100.0


class Tracer:
    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[float] = []
        self._patched: list[tuple] = []

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float, record: bool = True) -> None:
        dt = perf_counter() - t0
        self.self_time[name] += dt - self._stack.pop()
        if record:
            self.durations[name].append(dt)
        if self._stack:
            self._stack[-1] += dt

    def _patch(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.add(f"{module.__name__}.{attr}")
            return
        self._patched.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Time every call of ``module.attr``. ``name`` is the span name or a
        function of the call's arguments giving it; ``count(counts, *args)``
        adds work counts."""

        def make(fn):
            def timed(*args, **kwargs):
                label = name(*args, **kwargs) if callable(name) else name
                if count is not None:
                    count(self.counts, *args, **kwargs)
                t0 = self._enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit(label, t0)

            return timed

        self._patch(module, attr, make)

    def wrap_generator(self, module, attr: str, name: str, count=None) -> None:
        """Time each item a generator function yields; the span of a call is
        the time spent producing one item."""

        def make(fn):
            def timed(*args, **kwargs):
                if count is not None:
                    count(self.counts, *args, **kwargs)
                it = fn(*args, **kwargs)
                while True:
                    t0 = self._enter()
                    yielded = False
                    try:
                        item = next(it)
                        yielded = True
                    except StopIteration:
                        return
                    finally:
                        self._exit(name, t0, record=yielded)
                    yield item

            return timed

        self._patch(module, attr, make)

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def summary(self, name: str, per: int, wall: float) -> dict[str, float]:
        """Metrics of one span name: calls per ``per`` runs, median and tail
        duration in ms, the tail's percentile, and self time over ``wall``."""
        d = np.asarray(self.durations.get(name, ()))
        pct = tail_percentile(d.size)
        return {
            f"{name}.calls": d.size / per,
            f"{name}.ms_p50": float(np.median(d)) * 1e3 if d.size else 0.0,
            f"{name}.ms_tail": float(np.percentile(d, pct)) * 1e3 if d.size else 0.0,
            f"{name}.tail_pct": pct if d.size else 0.0,
            f"{name}.self_share": self.self_time.get(name, 0.0) / wall if wall else 0.0,
        }
