"""In-memory span tracing from outside the program.

The tracer wraps public functions at the attribute where callers look them
up (a module global such as ``blocksep.decoding.stft``, or a class attribute
such as ``MaskNet.forward``), records one span per call and restores every
original attribute on exit.  Nothing inside ``blocksep`` is modified on disk
or needs to know about tracing.

A span holds its name, start, end, the index of the span that was open when
it started (its parent) and optional attributes computed from the call's
arguments and result.  Spans stay in memory until the run ends.  Tracing is
single-threaded: the parent is the top of one stack.
"""

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects nested spans; use :meth:`span` directly or :meth:`install`
    wrappers around library attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of code; yields the span."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if attrs_fn is not None:
                self.spans[index].attrs.update(attrs_fn(args, result))
            return result

        return traced

    def install(self, owner, attribute, name, attrs_fn=None):
        """Replace ``owner.attribute`` by a traced wrapper.

        ``attrs_fn(args, result)`` may return a dict of span attributes.
        Class methods keep their descriptor type.
        """
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            patched = classmethod(self._wrap(original.__func__, name, attrs_fn))
        else:
            patched = self._wrap(original, name, attrs_fn)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, patched)

    def uninstall(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------------

    def children(self):
        """Map span index -> list of child span indices, in start order."""
        out = {i: [] for i in range(len(self.spans))}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out[s.parent].append(i)
        return out

    def self_times(self):
        """Per span: duration minus the time its child spans cover.

        Spans come from one thread and close in stack order, so the children
        of a span never overlap and their durations add up.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

