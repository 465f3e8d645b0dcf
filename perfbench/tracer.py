"""In-memory span recorder used by the traced run.

Spans are recorded from outside the program: ``Tracer.wrap`` returns a
wrapper that opens a span around each call. A span keeps its name, start,
end and parent (the span open when it started), in flat lists so that
recording costs a few list appends. Self time is a span's duration minus the
durations of its direct children; the self times of a tree of spans
therefore add up to the duration of its root.
"""

import functools
import json
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self._open = []

    def wrap(self, fn, name, on_return=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``on_return(args, kwargs, result)`` runs after the span closes; its
        cost falls in the caller's span, not in ``name``.
        """
        names, start, end, parent, open_ = (self.names, self.start, self.end,
                                            self.parent, self._open)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    def __len__(self):
        return len(self.names)

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Per-span duration minus the time covered by its direct children."""
        own = self.durations()
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def outermost(self, names):
        """Indices of spans named in ``names`` with no ancestor so named;
        summing their durations counts recursive time once."""
        names = set(names)
        out = []
        for idx, name in enumerate(self.names):
            if name not in names:
                continue
            par = self.parent[idx]
            while par >= 0 and self.names[par] not in names:
                par = self.parent[par]
            if par < 0:
                out.append(idx)
        return out

    def to_json(self):
        """Spans as records; start/end are seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        return [{"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in zip(self.names, self.start, self.end,
                                      self.parent)]

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.to_json()}, fh)
