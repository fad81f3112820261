"""Span timing around calls into the simulator, installed from outside.

A ``Tracer`` wraps chosen functions and methods of the ``cavity_toffoli``
modules while it is entered and restores the originals on exit.  Each
wrapped call is one span.  Spans nest on a stack, so a span's self time
is its duration minus the durations of the spans directly inside it.
Totals are aggregated per span name as calls happen; no per-span list
is kept, because one anchor operation makes a few hundred thousand spans.

A seam is addressed as ``(module, "attr")`` or ``(module, "Class.method")``.
A seam the tracer cannot find is reported as missing, not as an error, so
the same benchmark runs against code where a private seam was removed.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

_PACKAGE = "cavity_toffoli"


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Seam:
    """One span name and the callables timed under it.

    ``targets`` are ``(module_name, attr_path)`` pairs.  ``count`` maps
    ``(args, result)`` of one call to extra counters added to the span's
    ``counts``.
    """

    name: str
    targets: tuple
    count: Optional[Callable[[tuple, object], dict]] = None


def _resolve(module_name: str, attr_path: str):
    """(owner, attr, original) for a seam target, or None if it is gone."""
    owner = sys.modules.get(module_name)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        original = owner.__dict__.get(parts[-1])
    else:
        original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


class Tracer:
    """Wraps every found seam while entered; aggregates across entries."""

    def __init__(self, seams):
        self._seams = tuple(seams)
        self.stats = {seam.name: SpanStats() for seam in self._seams}
        self.missing = {seam.name for seam in self._seams
                        if any(_resolve(m, a) is None for m, a in seam.targets)}
        self._stack: list[list[float]] = []
        self._active: set[str] = set()
        self._undo: list[tuple] = []

    def _wrap(self, seam: Seam, fn):
        stats = self.stats[seam.name]
        stack = self._stack
        active = self._active
        name = seam.name
        count = seam.count
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # a seam re-entered through itself (e.g. a fallback path that
            # calls a sibling method under the same name) is one span
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(name)
                if stack:
                    stack[-1][0] += dt
                stats.calls += 1
                stats.s += dt
                stats.self_s += dt - children[0]
            if count is not None:
                for key, value in count(args, result).items():
                    stats.counts[key] = stats.counts.get(key, 0) + value
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")]
        for seam in self._seams:
            if seam.name in self.missing:
                continue
            for module_name, attr_path in seam.targets:
                owner, attr, original = _resolve(module_name, attr_path)
                wrapper = self._wrap(seam, original)
                if isinstance(owner, type):
                    bindings = [(owner, attr)]
                else:
                    # a function is also reachable through every module
                    # that imported it by name; patch each such binding
                    bindings = [(mod, key) for mod in modules
                                for key, value in vars(mod).items()
                                if value is original]
                for target, key in bindings:
                    self._undo.append((target, key, original))
                    setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
