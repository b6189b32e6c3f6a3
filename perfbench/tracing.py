"""Spans around calls into kinescope, recorded from outside the package.

A traced run swaps selected module attributes (``kinescope.direct.trace``,
``kinescope.inverse.extremes``, ...) for thin wrappers that record a span
per call, and puts the originals back afterwards.  Callers inside the
package look those names up in their own module at call time, so the
wrappers see the calls ``trace`` and ``identify`` make to the stages
below them; nothing under ``src/`` is edited.  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Optional

# A span is [name, start, end, parent index (-1 at top level), count].
# ``count`` is the work the span did in the layer's own unit: angles for
# support heights and envelopes, samples for a trace, bytes for a write.
Count = Optional[Callable[[tuple, object], int]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span; yields its record."""
        rec = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, count: Count = None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper, if the attribute exists.

        ``owner`` is a module or a class; classmethods stay classmethods.
        Missing attributes are skipped so that a refactor which drops an
        import leaves the benchmark running (its span then reads zero).
        """
        raw = vars(owner).get(attr)
        if raw is None:
            return
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec[4] = int(count(args, result))
            return result

        setattr(owner, attr, classmethod(traced) if is_cm else traced)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def layers(self, stages_of: dict[str, set[str]]) -> dict[str, dict[str, float]]:
        """Per-name totals: calls, busy and self seconds, summed counts.

        Self time is a span's duration minus the time its child spans
        cover.  ``stages_of`` maps a span name to the child names whose
        time is removed to get its ``stage_self`` (for ``inverse.identify``,
        the public inverse stages it calls, leaving the residual).
        """
        child = [0.0] * len(self.spans)
        staged = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
                if name in stages_of.get(self.spans[parent][0], ()):
                    staged[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, count) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "stage_self_s": 0.0, "count": 0}
            )
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - child[i]
            agg["stage_self_s"] += end - start - staged[i]
            agg["count"] += count
        return out
