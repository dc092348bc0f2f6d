"""Spans and counters recorded around the public functions of each layer.

The benchmark never edits ``src/``: :func:`install` replaces the layer
functions named in :func:`layer_targets` with thin wrappers that open a
:class:`Span` per call, and the returned :class:`Installed` handle puts
every original back.  Spans stay in memory; :func:`summarize` turns them
into per-name calls, inclusive seconds and self seconds once the run is
over.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in :attr:`Recorder.spans`, -1 at the root
    parent: int = -1


@dataclass
class Recorder:
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _open: List[int] = field(default_factory=list)

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def within(self, name: str) -> bool:
        """Whether a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self._open)

    def add(self, counter: str, value: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
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


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ())) for i, s in enumerate(spans)
    ]


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    A span nested inside another span of the same name (a delegating
    overload, recursion) adds to ``self_s`` but not to ``calls`` or ``s``,
    so inclusive time is never counted twice.
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["self_s"] += selfs[i]
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            row["calls"] += 1
            row["s"] += span.end - span.start
    return out


@dataclass
class Target:
    """One function to wrap: ``getattr(owner, attr)`` becomes a span ``name``.

    With ``aliases`` every loaded ``repro`` module that holds the same
    function object under the same attribute name is patched too, so
    ``from x import f`` call sites are seen.  ``before(args, kwargs)``
    runs ahead of the call; ``after(recorder, args, kwargs, result,
    before_state)`` turns the call into counters.
    """

    owner: Any
    attr: str
    name: str
    aliases: bool = False
    before: Optional[Callable[..., Any]] = None
    after: Optional[Callable[..., None]] = None


def _wrapper(fn: Callable, target: Target, rec: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        state = target.before(args, kwargs) if target.before else None
        index = rec.begin(target.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if target.after:
            target.after(rec, args, kwargs, result, state)
        return result

    return wrapped


@dataclass
class Installed:
    """Handle of installed wrappers; :meth:`restore` undoes them in reverse."""

    patches: List[Tuple[Any, str, Any]]

    def restore(self) -> bool:
        """Put every original back; True when each patched attribute again
        holds what it held before :func:`install`."""
        first: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        for owner, attr, original in self.patches:
            first.setdefault((id(owner), attr), (owner, original))
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []
        return all(
            owner.__dict__.get(attr) is original
            for (_, attr), (owner, original) in first.items()
        )


def _repro_modules() -> List[Any]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(rec: Recorder, targets: Sequence[Target]) -> Installed:
    """Wrap every target, in order; later targets may wrap earlier wrappers."""
    patches: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            original = target.owner.__dict__[target.attr]
            if not callable(original):
                raise TypeError(f"{target.owner!r}.{target.attr} is not a plain function")
            wrapped = _wrapper(original, target, rec)
            owners = [target.owner]
            if target.aliases:
                owners += [
                    mod
                    for mod in _repro_modules()
                    if mod is not target.owner and mod.__dict__.get(target.attr) is original
                ]
            for owner in owners:
                patches.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapped)
    except BaseException:
        Installed(patches).restore()
        raise
    return Installed(patches)
