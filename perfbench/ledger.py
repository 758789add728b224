"""Per-layer ledger: spans and counts recorded around the layers' public calls.

The traced run wraps each :class:`adapter.Boundary` from outside the program
(``setattr`` on the owning class or module, undone afterwards), so nothing
under ``src/`` changes.  A synchronous boundary is one span per call.  A
boundary that returns a generator is one span per *resume* of that
generator: the wrapper drives the real generator by hand and times each
``send``/``throw``.  Spans nest on one stack (the simulator is a single
thread and every resume runs to its next ``yield`` inside one Python call),
so a span's parent is the span that was open when it started.

Spans stay in memory in flat arrays until the pass ends; then
:meth:`Ledger.self_seconds` turns them into per-boundary self time (a span's
duration minus the duration of its direct children).
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter

import numpy as np


class Ledger:
    """Call counts, work tallies and spans for a fixed list of boundaries."""

    def __init__(self, boundaries):
        self.names = sorted({b.name for b in boundaries})
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._boundaries = boundaries
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.tallies = [0] * n
        self._bid = array("i")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack = [-1]

    # -- recording ------------------------------------------------------------------

    def _enter(self, bid: int) -> None:
        stack = self._stack
        self._parent.append(stack[-1])
        stack.append(len(self._bid))
        self._bid.append(bid)
        self._t1.append(0.0)
        self._t0.append(perf_counter())

    def _leave(self) -> None:
        t = perf_counter()
        self._t1[self._stack.pop()] = t

    def _count(self, bid: int) -> None:
        # an override calling its base-class version is one call, not two
        top = self._stack[-1]
        if top < 0 or self._bid[top] != bid:
            self.calls[bid] += 1

    def _wrap(self, fn, bid: int, tally):
        enter, leave, count = self._enter, self._leave, self._count
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn, updated=())
            def timed_gen(*args, **kwargs):
                count(bid)
                return self._resumes(fn(*args, **kwargs), bid)

            return timed_gen

        @functools.wraps(fn, updated=())
        def timed(*args, **kwargs):
            count(bid)
            enter(bid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if tally is not None:
                self.tallies[bid] += tally(args, kwargs, result)
            return result

        return timed

    def _resumes(self, gen, bid: int):
        """Drive ``gen`` on the caller's behalf, one span per resume."""
        enter, leave = self._enter, self._leave
        send, throw = gen.send, gen.throw
        value = exc = None
        while True:
            enter(bid)
            try:
                out = send(value) if exc is None else throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            try:
                value, exc = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # noqa: BLE001 - forwarded into gen
                value, exc = None, err

    # -- installing -------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` restores the originals."""
        if self._saved:
            raise RuntimeError("ledger already installed")
        for b in self._boundaries:
            original = getattr(b.owner, b.attr)
            self._saved.append((b.owner, b.attr, original))
            setattr(b.owner, b.attr, self._wrap(original, self._ids[b.name], b.tally))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per boundary name over the spans recorded since reset."""
        if self._stack != [-1]:
            raise RuntimeError("spans still open")
        bid = np.frombuffer(self._bid, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._t1, dtype=np.float64) - np.frombuffer(
            self._t0, dtype=np.float64
        )
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = np.bincount(bid, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def span_count(self) -> int:
        return len(self._bid)

    def counts(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def tally(self) -> dict[str, int]:
        return dict(zip(self.names, self.tallies))
