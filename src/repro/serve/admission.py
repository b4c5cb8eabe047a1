"""Admission control: a bounded priority queue with graceful shedding.

The queue holds :class:`QueryRequest` objects ordered by (priority desc,
submission order).  When full, ``offer`` raises a structured
:class:`~repro.serve.errors.ServiceError` with code ``QUEUE_FULL`` — load
shedding is an *error the client can act on*, never a silent drop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.serve.errors import QUEUE_FULL, ServiceError


@dataclass(frozen=True)
class QueryRequest:
    """One submitted query, as the admission queue carries it."""

    ticket: int
    sql: str
    session: str
    priority: int = 0
    # both limits are simulated quantities: cycles against the worker's
    # clock, instructions against the per-query budget
    timeout_cycles: int | None = None
    max_instructions: int | None = None

    @property
    def order_key(self) -> tuple[int, int]:
        # smaller sorts first: high priority, then FIFO within a priority
        return (-self.priority, self.ticket)


@dataclass
class AdmissionController:
    """Bounded priority queue; sheds on overflow, skips cancellations."""

    max_queue: int = 32
    _heap: list[tuple[tuple[int, int], QueryRequest]] = field(
        default_factory=list
    )
    _cancelled: set[int] = field(default_factory=set)
    shed: int = 0

    def __len__(self) -> int:
        return sum(
            1 for _, r in self._heap if r.ticket not in self._cancelled
        )

    def empty(self) -> bool:
        return len(self) == 0

    def offer(self, request: QueryRequest) -> None:
        """Enqueue, or shed with a stable ``QUEUE_FULL`` error."""
        if len(self) >= self.max_queue:
            self.shed += 1
            raise ServiceError(
                QUEUE_FULL,
                f"admission queue full ({self.max_queue} queued); "
                f"query {request.ticket} shed",
            )
        heapq.heappush(self._heap, (request.order_key, request))

    def poll(self) -> QueryRequest | None:
        """The next admissible request, or None when the queue is empty."""
        while self._heap:
            _, request = heapq.heappop(self._heap)
            if request.ticket in self._cancelled:
                self._cancelled.discard(request.ticket)
                continue
            return request
        return None

    def cancel(self, ticket: int) -> QueryRequest | None:
        """Mark a queued ticket cancelled; returns its request, or None if
        it was not waiting here."""
        if ticket in self._cancelled:
            return None
        for _, request in self._heap:
            if request.ticket == ticket:
                self._cancelled.add(ticket)
                return request
        return None
