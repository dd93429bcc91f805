"""Wall-clock helpers shared by the CLI, the report writer, and tests.

:class:`StopWatch` replaces the ad-hoc ``time.perf_counter()`` pairs that
used to be copy-pasted around experiment invocations; :func:`format_seconds`
renders a duration for tables and progress lines.
"""

from __future__ import annotations

import time

__all__ = ["StopWatch", "format_seconds"]


def format_seconds(seconds: float) -> str:
    """Human-readable duration: ``0.034s``, ``12.3s``, ``3m41s``."""
    if seconds < 0.1:
        return f"{seconds:.3f}s"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, rest = divmod(seconds, 60.0)
    return f"{int(minutes)}m{rest:02.0f}s"


class StopWatch:
    """Stopwatch usable as a context manager or via explicit :meth:`start`;
    ``elapsed`` is valid during and after either form."""

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed = 0.0

    def start(self) -> "StopWatch":
        """Begin (or restart) timing and return ``self`` for chaining:
        ``watch = StopWatch().start()``."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Freeze and return the elapsed time (no-op if never started)."""
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def __enter__(self) -> "StopWatch":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def elapsed(self) -> float:
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed

    def __str__(self) -> str:
        return format_seconds(self.elapsed)
