"""Spans recorded from outside the program.

:func:`instrument` wraps a public function or method of the program with a
span recorder; nothing under ``src/`` changes.  A span carries its name,
start, end, the span that was open on the same thread when it started (its
parent) and the id of the request in flight, set by the caller with
:meth:`Tracer.request` around one request at a time.
Spans stay in memory until :meth:`Tracer.dump` writes them out.  A span's
self time is its duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "request",
                 "size")

    def __init__(self, index, name, start, parent, request, size):
        self.index = index
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.request = request
        self.size = size

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = None
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, size: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1].index if stack else None
        with self._lock:
            record = Span(len(self.spans), name, time.perf_counter(), parent,
                          self._request, size)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def request(self, request_id):
        """Tag every span started meanwhile, on any thread (the engine
        predicts on its own thread) with ``request_id``."""
        previous, self._request = self._request, request_id
        try:
            yield
        finally:
            self._request = previous

    # ------------------------------------------------------------------
    def instrument(self, owner: Any, attr: str, name: str,
                   inspect: Optional[Callable[..., Any]] = None,
                   after: Optional[Callable[[Any], None]] = None) -> None:
        """Wrap ``owner.attr`` and every module-level alias of it.

        Functions imported by name (``from x import f``) are bound in the
        importing module too, so every loaded module whose attribute is the
        same object gets the wrapper.  ``inspect`` sees the arguments and
        returns the span's size; ``after`` sees the result.  An entry point
        the program no longer has is listed in :attr:`missing`, and its
        layer's metrics read 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            size = inspect(*args, **kwargs) if inspect is not None else None
            with tracer.span(name, size):
                result = original(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        targets = [owner]
        if not isinstance(owner, type):
            targets += [module for module in list(sys.modules.values())
                        if module is not None and module is not owner
                        and getattr(module, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapper)
            self._undo.append(
                functools.partial(setattr, target, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                kids[s.parent].append(s)
        return kids

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name."""
        kids = self.children()
        totals: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.end is None:
                continue
            covered, cursor = 0.0, s.start
            for child in sorted(kids.get(s.index, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.name] += s.seconds - covered
        return dict(totals)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "request": s.request,
                                     "size": s.size}) + "\n")
