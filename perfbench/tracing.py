"""Spans recorded around layer entry points, from the benchmark's side.

The traced run wraps public entry points of the job-service layers
(``BatchedEngine.add/remove/extract/step``, ``save_checkpoint_v2`` and
``os.fsync``) for the duration of a ``with`` block and restores them on
exit.  Nothing is wrapped in untraced runs.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, Iterator, Optional


class Span:
    """Accumulated wall time and call count of one wrapped entry point."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    @property
    def ms(self) -> float:
        return 1e3 * self.seconds


@contextmanager
def patched(
    owner: object,
    attr: str,
    wrap: Callable[[Callable[..., Any]], Callable[..., Any]],
) -> Iterator[None]:
    """Replace ``owner.attr`` by ``wrap(original)`` while the block runs."""
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(wrap(original)))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def timed_call(
    original: Callable[..., Any], span: Span, args, kwargs,
) -> Any:
    """Call ``original`` and add its wall time and one call to ``span``."""
    t0 = time.perf_counter()
    try:
        return original(*args, **kwargs)
    finally:
        span.seconds += time.perf_counter() - t0
        span.calls += 1


def wrapped(
    owner: object,
    attr: str,
    span: Span,
    after: Optional[Callable[..., None]] = None,
):
    """Time every call of ``owner.attr`` into ``span`` while the block runs.

    ``after(result, *args)`` runs outside the timed interval, for counts
    taken from a call's arguments or result.
    """

    def wrap(original):
        def timed(*args, **kwargs):
            result = timed_call(original, span, args, kwargs)
            if after is not None:
                after(result, *args)
            return result

        return timed

    return patched(owner, attr, wrap)


class JobLayerTrace:
    """Spans and counts of the batch, checkpoint and journal layers.

    ``os.fsync`` calls made inside a checkpoint save belong to the
    checkpoint; every other fsync in the job service is the journal's.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {
            name: Span()
            for name in ("add", "remove", "extract", "step", "save")
        }
        self.bytes_written = 0
        self.segments_stepped = 0
        self.journal_fsync = Span()
        self._in_save = 0

    @contextmanager
    def active(self) -> Iterator["JobLayerTrace"]:
        import repro.core.checkpoint as checkpoint
        from repro.md.batch import BatchedEngine

        def count_segments(_result, engine, *args):
            self.segments_stepped += engine.n_segments

        def save(original):
            def timed(*args, **kwargs):
                self._in_save += 1
                try:
                    path = timed_call(original, self.spans["save"], args, kwargs)
                finally:
                    self._in_save -= 1
                self.bytes_written += os.path.getsize(path)
                return path

            return timed

        def fsync(original):
            def timed(fd):
                if self._in_save:
                    return original(fd)
                return timed_call(original, self.journal_fsync, (fd,), {})

            return timed

        s = self.spans
        with ExitStack() as stack:
            stack.enter_context(patched(checkpoint, "save_checkpoint_v2", save))
            stack.enter_context(patched(os, "fsync", fsync))
            stack.enter_context(wrapped(BatchedEngine, "add", s["add"]))
            stack.enter_context(wrapped(BatchedEngine, "remove", s["remove"]))
            stack.enter_context(wrapped(BatchedEngine, "extract", s["extract"]))
            stack.enter_context(
                wrapped(BatchedEngine, "step", s["step"], count_segments)
            )
            yield self
