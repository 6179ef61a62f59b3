"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces a public name of a twospring module with a wrapper
that records one span (name, start, end, parent) per call.  The wrapper is
installed where the *calling* module looks the name up, for example
``twospring.regions.solve_reduced``, so the library itself is not edited.
Spans live in flat typed arrays (26 bytes each) and are written out once, at
the end of the run.
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    """Records spans around wrapped callables; :meth:`restore` unwraps them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, module, attr: str, span: str, after=None) -> None:
        """Record a span named ``span`` around every call of ``module.attr``.

        ``after(args, result)`` runs once the span has ended; it must stay
        cheap, because its time still falls inside the caller's span.
        """
        fn = getattr(module, attr)
        nid = self._id(span)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))

    def restore(self) -> None:
        """Put every wrapped name back to the original callable."""
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, self time and callers.

        Self time is a span's duration minus the durations of its direct
        children, so time spent in a callee is charged to the callee only.
        ``parents`` counts calls by the name of the calling span (``""`` for
        calls made by the benchmark itself).
        """
        import numpy as np

        n = len(self.start)
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = (np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        m = len(self.names)
        counts = np.bincount(name, minlength=m)
        own = np.bincount(name, weights=self_ns, minlength=m)
        caller = np.full(n, m, dtype=np.int64)
        caller[has_parent] = name[parent[has_parent]]
        pairs = np.bincount(name * (m + 1) + caller, minlength=m * (m + 1)).reshape(m, m + 1)
        caller_names = self.names + [""]
        return {
            span: {
                "count": int(counts[i]),
                "self_s": float(own[i]) / 1e9,
                "parents": {caller_names[j]: int(c) for j, c in enumerate(pairs[i]) if c},
            }
            for i, span in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to ``path`` as a numpy ``.npz`` archive."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.uint16),
            start_ns=np.array(self.start, dtype=np.int64),
            end_ns=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
        )
