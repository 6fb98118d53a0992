"""In-memory span tracer and timing wrappers for the traced benchmark run.

The traced run wraps public callables of ``repro`` with timing wrappers that
record one span per call: ``(id, name, start, end, parent)``.  Spans stay in
memory and are written out once, when the run ends.  Nothing here is
imported by ``repro``; the wrappers are installed by :class:`Installer` for
the traced phase only and removed afterwards.

A name bound by ``from module import name`` lives on in every importing
module, so wrapping only the defining module would miss those calls.
:meth:`Installer.wrap_function` therefore replaces the object in *every*
loaded ``repro`` module that binds it, and counts calls per binding site so a
check can prove each site was reached.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: Span tuple fields, in order.
SPAN_FIELDS = ("id", "name", "start", "end", "parent")


class Tracer:
    """Collects spans; the parent of a span is the innermost open span of its thread."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.site_calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), 0.0, stack[-1][0] if stack else -1]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name: str, fn, site: str = ""):
        """A wrapper of ``fn`` recording one span per call (per ``next`` for generators)."""
        tracer = self
        key = (name, site)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.site_calls[key] += 1
                return tracer.iterate(name, fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.site_calls[key] += 1
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def iterate(self, name: str, iterator):
        """Yield from ``iterator``, timing each ``next`` as a ``name`` span."""
        iterator = iter(iterator)
        try:
            while True:
                span = self.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.close(span)
                self.counters[name + ".items"] += 1
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def dump(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"run_id": self.run_id, "fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


@dataclass
class SpanIndex:
    """Parent/child lookups over a list of span tuples."""

    spans: list

    def __post_init__(self) -> None:
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            self.children[s[4]].append(s)

    def _outermost(self, names: set[str]):
        """Spans named in ``names`` with no ancestor also named in ``names``."""
        for s in self.spans:
            if s[1] not in names:
                continue
            parent = self.by_id.get(s[4])
            while parent is not None and parent[1] not in names:
                parent = self.by_id.get(parent[4])
            if parent is None:
                yield s

    def total_ms(self, *names: str) -> float:
        """Time covered by the named spans, nested repeats counted once."""
        return 1e3 * sum(s[3] - s[2] for s in self._outermost(set(names)))

    def calls(self, *names: str) -> int:
        """Outermost calls of the named spans."""
        return sum(1 for _ in self._outermost(set(names)))

    def self_ms(self, name: str) -> float:
        """Duration of each ``name`` span minus the part its children cover."""
        total = 0.0
        for s in self.spans:
            if s[1] != name:
                continue
            covered = _union_length(
                (max(c[2], s[2]), min(c[3], s[3])) for c in self.children.get(s[0], ())
            )
            total += (s[3] - s[2]) - covered
        return 1e3 * total


# --------------------------------------------------------------------------- #
# Installing wrappers
# --------------------------------------------------------------------------- #
def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Installer:
    """Installs timing wrappers and restores the originals on :meth:`uninstall`."""

    def __init__(self, tracer: Tracer, package: str = "repro") -> None:
        self.tracer = tracer
        self.package = package
        self._restore: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, name: str, target: str) -> None:
        """Wrap a module-level function at every binding site, or a method.

        A method is wrapped under every name of its class that aliases it
        (``__call__ = forward``), since callers may use either.
        """
        owner, attr = _resolve(target)
        if inspect.isclass(owner):
            original = owner.__dict__[attr]
            wrapped = self.tracer.wrap(name, original, owner.__qualname__)
            for alias, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, alias, wrapped)
        else:
            self.wrap_function(name, getattr(owner, attr))

    def wrap_function(self, name: str, fn) -> list[str]:
        """Replace ``fn`` in every loaded module of the package that binds it."""
        sites = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == self.package or module_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, self.tracer.wrap(name, fn, module_name))
                    sites.append(module_name)
        return sites

    def hook(self, target: str, replacement_factory) -> None:
        """Replace a class attribute with ``replacement_factory(original)``."""
        owner, attr = _resolve(target)
        self._set(owner, attr, replacement_factory(owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
