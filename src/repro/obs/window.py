"""The one bounded latency window behind every percentile in ``/metrics``."""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Sequence


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 for an empty one).

    The rank is ``round(fraction * (n - 1))``, clamped into the sequence.
    """
    if not sorted_values:
        return 0.0
    rank = round(fraction * (len(sorted_values) - 1))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


class LatencyWindow:
    """The last ``size`` durations in seconds, summarised in ms.

    Thread-safe: windows are fed from the event loop, the dispatch thread
    and fleet pipe-reader callbacks concurrently.  ``size=None`` keeps
    every value, which is what :meth:`merge` builds.

    Examples:
        >>> window = LatencyWindow(size=2)
        >>> for seconds in (0.5, 0.001, 0.003):
        ...     window.add(seconds)
        >>> window.values()
        [0.001, 0.003]
        >>> summary = LatencyWindow.merge([window, [0.002]]).summary()
        >>> summary["window"], round(summary["p50"], 3), round(summary["max"], 3)
        (3, 2.0, 3.0)
    """

    def __init__(self, size: int | None = 1024) -> None:
        self._values: deque[float] = deque(maxlen=size)
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        """Record one duration, evicting the oldest once the window is full."""
        with self._lock:
            self._values.append(seconds)

    def values(self) -> list[float]:
        """A copy of the window in arrival order, oldest first."""
        with self._lock:
            return list(self._values)

    @classmethod
    def merge(cls, sources: Iterable[LatencyWindow | Iterable[float]]) -> LatencyWindow:
        """One unbounded window of every value of every source.

        A source is a window or raw values, e.g. a worker's window shipped
        over its pipe as a list.
        """
        merged = cls(size=None)
        for source in sources:
            merged._values.extend(
                source.values() if isinstance(source, LatencyWindow) else source
            )
        return merged

    def summary(self) -> dict:
        """``window`` (sample count) plus p50/p95/p99/mean/max in ms."""
        ordered = sorted(self.values())
        return {
            "window": len(ordered),
            "p50": percentile(ordered, 0.50) * 1e3,
            "p95": percentile(ordered, 0.95) * 1e3,
            "p99": percentile(ordered, 0.99) * 1e3,
            "mean": (sum(ordered) / len(ordered) * 1e3) if ordered else 0.0,
            "max": (ordered[-1] * 1e3) if ordered else 0.0,
        }
