"""Bounded admission queue (load shedding).

A fixed-capacity FIFO over the requests the service has accepted but not
yet resolved.  When an ``offer`` would exceed capacity the request is
*shed* — the caller turns that into a structured ``RESOURCE_EXHAUSTED``
response immediately, which keeps tail latency bounded under overload
instead of letting an unbounded backlog grow (the same admission-control
stance as a clangd daemon refusing new requests while saturated).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Iterator, Optional, TypeVar

T = TypeVar("T")


class AdmissionQueue(Generic[T]):
    """FIFO with a hard capacity on *unresolved* work.

    ``capacity`` bounds ``len(queue) + in_flight``: the caller reports
    completions via :meth:`release` so that work handed to a worker
    still counts against the backpressure threshold until it resolves.
    """

    def __init__(
        self,
        capacity: int,
        on_change: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[T] = deque()
        self._in_flight = 0
        #: observer called as ``on_change(queued, in_flight)`` after
        #: every accepted mutation (telemetry gauges hook in here)
        self.on_change = on_change

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change(len(self._items), self._in_flight)

    # ------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Unresolved work: queued plus in flight."""
        return len(self._items) + self._in_flight

    def offer(self, item: T) -> bool:
        """Admit *item*, or return False (shed) when over capacity."""
        if self.load >= self.capacity:
            return False
        self._items.append(item)
        self._notify()
        return True

    def pop(self) -> Optional[T]:
        """Take the next queued item, moving it to in-flight."""
        if not self._items:
            return None
        self._in_flight += 1
        item = self._items.popleft()
        self._notify()
        return item

    def requeue(self, item: T) -> None:
        """Return an in-flight item to the queue head (retry path);
        does not change the load, so it can never shed."""
        self._in_flight -= 1
        self._items.appendleft(item)
        self._notify()

    def release(self) -> None:
        """Mark one in-flight item resolved."""
        if self._in_flight <= 0:
            raise RuntimeError("release() without matching pop()")
        self._in_flight -= 1
        self._notify()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)
