"""Span tracing from outside the program.

The benchmark never edits ``src/``: a :class:`Tracer` wraps the public
functions and methods named in :data:`layers.WRAPS` at run time and
restores them afterwards.  Each call records one span — name, start,
end, parent span and request id — in memory; nothing is written until
:meth:`Tracer.dump` runs after the measured phase.

The HTTP server answers on its own thread while the client thread waits,
so a span opened on a thread with an empty stack is parented to the
client span that is open at that moment (:meth:`Tracer.open_root`).
Self time is a span's duration minus the part of its interval that its
children cover, clipped to the parent, so a server span that outlives
the client's read by a few microseconds cannot make the rollup exceed
the end-to-end time.  Calls made while no client operation is open
(set-up work between steps) record no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: span record fields
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """In-memory spans plus named counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._request = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str) -> Optional[int]:
        """Open a span under the innermost open one; None (no span) when
        no client operation is open, as for work done between steps."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if parent is None:
            return None
        request = self.spans[parent][REQUEST]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, request])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter_ns()
        self._stack().pop()

    def open_root(self, name: str) -> int:
        """A client operation: a new request id, and the parent of any
        span another thread opens while it runs."""
        self._request += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, None, self._request])
        self._stack().append(index)
        self._root = index
        return index

    def close_root(self, index: int) -> None:
        self.end(index)
        self._root = None

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        target: str,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Wrap ``attr`` of *target* (``"module"`` or ``"module:Class"``).

        A module-level function is also replaced in every ``repro``
        module that imported it by name (under any alias), or those
        callers would keep calling the unwrapped object."""
        module_name, _, class_name = target.partition(":")
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.start(name)
            if index is None:
                return original(*args, **kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, result)
            return result

        targets = [(owner, attr)]
        if not class_name:
            targets += [
                (m, alias)
                for key, m in list(sys.modules.items())
                if key.startswith("repro") and m is not module
                for alias, value in list(vars(m).items())
                if value is original
            ]
        for holder, name_in_holder in targets:
            setattr(holder, name_in_holder, wrapper)
            self._patched.append((holder, name_in_holder, original))

    def unwrap(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- rollup --------------------------------------------------------
    def self_times_ns(self) -> List[int]:
        """Per span: duration minus the clipped cover of its children."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[PARENT] is not None:
                children[span[PARENT]].append(index)
        result = []
        for index, span in enumerate(self.spans):
            start, end = span[START], span[END]
            covered = 0
            cursor = start
            for child in sorted(children.get(index, ()), key=lambda c: self.spans[c][START]):
                c_start = max(self.spans[child][START], cursor)
                c_end = min(self.spans[child][END], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            result.append(end - start - covered)
        return result

    def roots(self) -> List[int]:
        """The client operation each span belongs to."""
        result: List[int] = []
        for span in self.spans:
            parent = span[PARENT]
            result.append(len(result) if parent is None else result[parent])
        return result

    def rollup(self, only_roots=None) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self ms)`` over every finished span, or over
        the spans of the client operations in *only_roots*."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        roots = self.roots()
        for index, (span, self_ns) in enumerate(zip(self.spans, self.self_times_ns())):
            if only_roots is not None and roots[index] not in only_roots:
                continue
            entry = totals[span[NAME]]
            entry[0] += 1
            entry[1] += self_ns / 1e6
        return {name: (int(c), ms) for name, (c, ms) in totals.items()}

    def root_ms(self, only_roots=None) -> float:
        """Summed duration of the client operations (the traced
        end-to-end time the layer self times must add up to)."""
        return sum(
            (s[END] - s[START]) / 1e6
            for i, s in enumerate(self.spans)
            if s[PARENT] is None and (only_roots is None or i in only_roots)
        )

    def roots_containing(self, name: str) -> set:
        """Client operations with a span called *name* below them."""
        roots = self.roots()
        return {roots[i] for i, s in enumerate(self.spans) if s[NAME] == name}

    def dump(self, path: str) -> None:
        """Write every span (times relative to the first) as JSON lines."""
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[NAME],
                            "start_us": (span[START] - origin) // 1000,
                            "end_us": (span[END] - origin) // 1000,
                            "parent": span[PARENT],
                            "request": span[REQUEST],
                        }
                    )
                    + "\n"
                )
