"""Priority queue of pending mapping requests.

The :class:`JobQueue` is the waiting room between the HTTP front end and
the engine dispatcher: submissions enter as :class:`QueuedTicket` records
(one per *unique* mapping job — duplicates attach as followers at the
service layer), and the dispatcher's micro-batcher pops them back out in
priority order.

Design constraints:

* **Single event loop.**  ``put``/``cancel`` are plain synchronous calls
  (they run on the loop that owns the service); only ``get`` awaits.
* **Priorities with FIFO ties.**  Higher ``priority`` pops first; equal
  priorities keep submission order via a monotonically increasing
  sequence number, so two equal-priority clients are served fairly.
* **Lazy removal.**  Cancelling marks the ticket; the ticket leaves the
  heap when it reaches the front.  ``get`` therefore returns *any*
  ticket — the caller (the service's admission step) is responsible for
  discarding cancelled or deadline-expired ones, because that is where
  the job-status bookkeeping lives.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["QueuedTicket", "JobQueue"]


@dataclass
class QueuedTicket:
    """One unique mapping job waiting for (or undergoing) execution."""

    job_id: str
    #: The executable job and its canonical hash, prebuilt at submission
    #: time so admission errors surface to the submitting client.
    mapping_job: Any
    cache_key: str
    priority: int = 0
    #: ``time.monotonic()`` moment after which the job is expired rather
    #: than solved (``None``: wait forever).
    deadline_at: Optional[float] = None
    #: Job ids of identical submissions deduped onto this ticket; they
    #: all receive this ticket's result.
    followers: List[str] = field(default_factory=list)
    #: Queue deadlines of individual followers (``job_id ->`` monotonic
    #: moment): a follower whose deadline passes before the shared solve
    #: starts is expired on its own, without touching its siblings.
    follower_deadlines: Dict[str, float] = field(default_factory=dict)
    cancelled: bool = False
    #: Set once the dispatcher hands the ticket to the engine; from then
    #: on cancellation and expiry are refused (the solve is in flight).
    running: bool = False
    #: Warm-state key of the job's identity when warm sharing is active
    #: (empty otherwise); the finished solve exports its chain context
    #: under this key for sibling replicas to seed from.
    warm_key: str = ""

    def job_ids(self) -> List[str]:
        return [self.job_id, *self.followers]

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline_at is None or self.running:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_at


class JobQueue:
    """Priority queue with cancellation and deadline bookkeeping."""

    def __init__(self) -> None:
        # Heap entries are [neg_priority, seq, ticket, valid]; a
        # reprioritized ticket invalidates its old entry and pushes a new
        # one, so the heap never needs in-place rebalancing.
        self._heap: List[list] = []
        self._entries: Dict[str, list] = {}
        self._seq = itertools.count()
        self._wakeup = asyncio.Event()
        self._by_id: Dict[str, QueuedTicket] = {}

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def depth(self) -> int:
        """Live (not yet popped, not cancelled) tickets."""
        return sum(1 for t in self._by_id.values() if not t.cancelled)

    def put(self, ticket: QueuedTicket) -> None:
        """Enqueue a ticket (synchronous; wakes a blocked ``get``)."""
        entry = [-ticket.priority, next(self._seq), ticket, True]
        heapq.heappush(self._heap, entry)
        self._by_id[ticket.job_id] = ticket
        self._entries[ticket.job_id] = entry
        self._wakeup.set()

    async def get(self) -> QueuedTicket:
        """Pop the highest-priority ticket, waiting while the queue is empty.

        Cancelled and expired tickets are returned like any other — the
        caller discards them — but they no longer count as queued.
        """
        while True:
            ticket = self.get_nowait()
            if ticket is not None:
                return ticket
            self._wakeup.clear()
            await self._wakeup.wait()

    def get_nowait(self) -> Optional[QueuedTicket]:
        """Pop the next ticket without waiting; ``None`` when empty."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if not entry[3]:  # superseded by a reprioritized entry
                continue
            ticket = entry[2]
            self._by_id.pop(ticket.job_id, None)
            self._entries.pop(ticket.job_id, None)
            return ticket
        return None

    def reprioritize(self, job_id: str, priority: int) -> bool:
        """Raise a queued ticket's priority (a deduped follower outranking
        its primary promotes the shared solve).  Lowering is refused —
        work already promised at a priority is never demoted."""
        ticket = self._by_id.get(job_id)
        entry = self._entries.get(job_id)
        if ticket is None or entry is None or ticket.cancelled:
            return False
        if priority <= ticket.priority:
            return False
        entry[3] = False
        ticket.priority = priority
        fresh = [-priority, next(self._seq), ticket, True]
        heapq.heappush(self._heap, fresh)
        self._entries[job_id] = fresh
        return True

    def find(self, job_id: str) -> Optional[QueuedTicket]:
        return self._by_id.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Mark a queued ticket cancelled; ``False`` if it already left."""
        ticket = self._by_id.get(job_id)
        if ticket is None or ticket.cancelled:
            return False
        ticket.cancelled = True
        return True

    def due(self, now: Optional[float] = None) -> List[QueuedTicket]:
        """Queued tickets whose primary deadline has passed.

        A pure query: whether an overdue ticket dies or keeps solving for
        its deduped followers is the *service's* decision, so nothing is
        marked here.
        """
        now = time.monotonic() if now is None else now
        return [
            t
            for t in self._by_id.values()
            if not t.cancelled and t.expired(now)
        ]
