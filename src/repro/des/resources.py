"""Shared resources for simulation processes.

Three primitives cover everything the Gamma model needs:

* :class:`Resource` -- a server pool with FCFS queueing (a network
  interface).  :meth:`Resource.hold` is the one way the model runs a
  service burst: the kernel grants a server, keeps it for the burst and
  releases it, and only then resumes the waiting process.
* :class:`PriorityResource` -- FCFS within priority classes; lower numbers
  are served first.  The paper's CPU is "FCFS non-preemptive ... except for
  byte transfers to/from the disk's FIFO buffer": we model that by granting
  DMA transfers a higher priority class, so they are served ahead of any
  queued normal work without preempting the request in service.
* :class:`Store` -- an unbounded FIFO of items with blocking ``get``; the
  message queue of every manager process.

Hot-path design
---------------
``hold`` grants immediately -- no queue round-trip -- when a server is
free and nobody waits (the overwhelmingly common case in the Gamma
model, where most CPU bursts and NIC holds find the server idle).  The
grant value and monitor observation are identical to the queued path's,
so simulated results do not depend on which path ran.

A hold puts one agenda entry on the agenda: the wake entry
``(grant time + duration, NORMAL, seq, Hold._finish, hold)``, pushed
the moment the grant is decided.  A process writing ``request`` /
sleep / ``release`` by hand puts two -- the grant entry, then a sleep
taking the next sequence number when the grant surfaces.  Every grant
entry sits at ``(now, NORMAL)`` and surfaces in push order, so the
wake entries keep their order relative to each other and to every
entry pushed before the grant decision.  The one order that differs:
an entry that is not a hold's (a sleep, timeout or store event),
pushed after the grant decision and before the grant entry would have
surfaced, and due at exactly the wake's instant, now runs *after* the
wake instead of before it.

:class:`PriorityResource` cancels queued requests by tombstoning their
heap entry (O(1)) instead of scanning and re-heapifying (O(n)); the
tombstones are skipped lazily when the scheduler pops the next grant.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, List, Optional

from .environment import Environment
from .events import _PENDING, NORMAL, Event, SimulationError

__all__ = ["Request", "Hold", "Resource", "PriorityResource", "Store"]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager so that the resource is always released::

        with cpu.request() as req:
            yield req            # wait for the grant
            yield env.timeout(service_time)
        # released here
    """

    __slots__ = ("resource", "priority", "enqueued_at")

    #: The one agenda entry a grant decision pushes is
    #: ``(now + claim.duration, NORMAL, seq, claim._wake, claim)``.  A
    #: plain request's is its grant entry -- due at once and processed
    #: like any triggered event, resuming its waiters; a :class:`Hold`
    #: overrides both to push its wake entry instead.
    duration = 0.0
    _wake = staticmethod(Event._run_callbacks)

    def __init__(self, resource: "Resource", priority: int):
        super().__init__(resource.env)
        self.resource = resource
        self.priority = priority
        self.enqueued_at = resource.env._now

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.resource.release(self)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the grant (valid once granted)."""
        return self.value  # the grant value is the wait duration


class Hold(Request):
    """A claim the kernel holds for ``duration``; see :meth:`Resource.hold`.

    Its value is the queueing wait, available from the grant on; the
    event is processed -- resuming the waiting process -- only once the
    server has been released and ``on_done(wait, duration)`` has run.
    The grant decision pushes the hold's only agenda entry, the wake
    entry ``(grant time + duration, NORMAL, seq, Hold._finish, hold)``.
    """

    __slots__ = ("duration", "on_done")

    @staticmethod
    def _finish(hold: "Hold") -> None:
        """Wake entry: book, release, report, then resume the waiters.

        The order is the one hand-written bursts used: busy time first,
        then the release (whose re-grant takes the next sequence
        number), then the ``on_done`` booking, and the waiting process
        last.  An interrupted waiter has already left ``callbacks``, so
        the server is still returned and nothing is resumed.
        """
        resource = hold.resource
        duration = hold.duration
        resource.busy_seconds += duration
        resource.release(hold)
        on_done = hold.on_done
        if on_done is not None:
            on_done(hold._value, duration)
        # Event._run_callbacks inlined: one frame less per burst.
        callbacks = hold.callbacks
        hold.callbacks = None
        hold._processed = True
        for callback in callbacks:
            callback(hold)

    _wake = _finish


class Resource:
    """A pool of ``capacity`` identical servers with FCFS queueing."""

    __slots__ = ("env", "capacity", "_users", "_queue", "_waiting",
                 "monitor", "busy_seconds")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        #: Live queued requests; kept in sync by _enqueue/_pop_next/
        #: _discard so the hot paths never measure the queue itself
        #: (PriorityResource's queue also holds tombstones).
        self._waiting = 0
        # Monitoring hooks (populated lazily by des.monitor.UtilizationMonitor).
        self.monitor = None
        #: Summed ``duration`` of every completed :meth:`hold`, added at
        #: each release; writable so owners can reset their statistics.
        self.busy_seconds = 0.0

    # -- public API -------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return self._waiting

    def request(self, priority: int = 0) -> Request:
        """Claim one server; the returned event fires when granted.

        The claim joins the queue and is granted at once if a server is
        free; the grant value and monitor sample equal those of
        :meth:`hold`'s inlined fast grant.
        """
        req = Request(self, priority)
        self._enqueue(req)
        if len(self._users) < self.capacity and self._grant_next():
            self._note_change()
        return req

    def hold(self, duration: float, priority: int = 0,
             on_done: Optional[Callable[[float, float], None]] = None,
             ) -> Hold:
        """Claim a server, keep it for *duration*, release it.

        The returned event is yielded by the process; the kernel does
        the rest.  Once the server is released it calls
        ``on_done(wait, duration)`` (``wait`` being the time queued
        before the grant), and only then resumes the process, which
        receives ``wait``::

            wait = yield server.hold(0.004, on_done=book)

        *duration* is added to :attr:`busy_seconds`.  A process
        interrupted while waiting stops waiting, but the hold still
        runs its course and releases the server.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration {duration!r}")
        # Request.__init__ inlined: one hold per simulated service burst.
        env = self.env
        hold = Hold.__new__(Hold)
        hold.env = env
        hold.callbacks = []
        hold._exception = None
        hold._processed = False
        hold.resource = self
        hold.priority = priority
        hold.enqueued_at = env._now
        hold.duration = duration
        hold.on_done = on_done
        users = self._users
        if not self._waiting and len(users) < self.capacity:
            # Uncontended fast grant: a server is free and nobody is
            # queued ahead, so grant in place and push the wake entry.
            # The grant value (the wait) is exactly what the queued
            # path would compute: now - enqueued_at == 0.0.
            users.append(hold)
            hold._value = 0.0
            env._seq += 1
            heappush(env._agenda, (env._now + duration, NORMAL, env._seq,
                                   Hold._finish, hold))
            monitor = self.monitor
            if monitor is not None:
                # TimeWeightedMonitor.observe inlined: the simulation
                # clock never runs backwards inside the event loop, so
                # the method's backwards guard is unreachable here.
                now = env._now
                monitor._area += monitor._level * (now
                                                   - monitor._last_change)
                level = len(users)
                monitor._level = level
                monitor._last_change = now
                if level > monitor._max:
                    monitor._max = level
        else:
            hold._value = _PENDING
            self._enqueue(hold)
            # With every server busy (the usual reason to queue) there
            # is nothing to grant; skip the call.
            if len(users) < self.capacity and self._grant_next():
                self._note_change()
        return hold

    def release(self, request: Request) -> None:
        """Return the server held by *request* to the pool.

        Releasing an ungranted request cancels it (removes it from the
        queue); releasing twice is an error.
        """
        users = self._users
        try:
            users.remove(request)
        except ValueError:
            if self._discard(request):
                return
            if request.triggered:
                raise SimulationError("request released twice") from None
            raise SimulationError(  # pragma: no cover - defensive
                "request does not belong to this resource") from None
        if self._waiting:
            self._grant_next()
        # One observation per state transition: the release and any
        # same-instant re-grant collapse into a single sample at the
        # settled level (the original design double-observed the
        # transient dip, inflating monitor sample counts).
        monitor = self.monitor
        if monitor is not None:
            # TimeWeightedMonitor.observe inlined, as in hold().
            now = self.env._now
            monitor._area += monitor._level * (now - monitor._last_change)
            level = len(users)
            monitor._level = level
            monitor._last_change = now
            if level > monitor._max:
                monitor._max = level

    # -- queue discipline (overridden by PriorityResource) -----------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)
        self._waiting += 1

    def _pop_next(self) -> Optional[Request]:
        if self._queue:
            self._waiting -= 1
            return self._queue.popleft()
        return None

    def _discard(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
        except ValueError:
            return False
        self._waiting -= 1
        return True

    # -- internals ----------------------------------------------------------

    def _grant_next(self) -> bool:
        """Grant waiting requests while servers are free; True if any.

        Each grant pushes the claim's one agenda entry (see
        :class:`Request`): a hold's wake entry, a plain request's grant
        entry.  The queue pop is written out inline (instead of calling
        :meth:`_pop_next`) because nearly every release of a contended
        resource lands here; :class:`PriorityResource` overrides this
        with the tombstone-skipping equivalent.
        """
        granted = False
        users = self._users
        capacity = self.capacity
        env = self.env
        queue = self._queue
        while queue and len(users) < capacity:
            nxt = queue.popleft()
            self._waiting -= 1
            users.append(nxt)
            # Inlined succeed(now - enqueued_at): queued requests are
            # untriggered by construction.
            nxt._value = env._now - nxt.enqueued_at
            env._seq += 1
            heappush(env._agenda, (env._now + nxt.duration, NORMAL,
                                   env._seq, nxt._wake, nxt))
            granted = True
        return granted

    def _note_change(self) -> None:
        monitor = self.monitor
        if monitor is not None:
            monitor.observe(self.env._now, len(self._users))


class PriorityResource(Resource):
    """A :class:`Resource` serving lower ``priority`` values first.

    Within one priority class the discipline remains FCFS.  Grants are
    non-preemptive: an in-service request always completes.

    Cancellation (releasing a still-queued request) tombstones the heap
    entry in O(1) -- the entry's request slot is set to ``None`` and
    skipped when it surfaces at the heap root -- instead of the O(n)
    scan plus re-heapify of the original design.  ``queue_length``
    counts live entries only.
    """

    __slots__ = ("_pqueue", "_pentries", "_pseq")

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        #: Heap of mutable ``[priority, seq, request-or-None]`` entries.
        self._pqueue: List[List] = []
        #: Live request -> its heap entry, for O(1) tombstoning.
        self._pentries: Dict[Request, List] = {}
        self._pseq = 0

    def _enqueue(self, request: Request) -> None:
        self._pseq += 1
        entry = [request.priority, self._pseq, request]
        self._pentries[request] = entry
        heappush(self._pqueue, entry)
        self._waiting += 1

    def _pop_next(self) -> Optional[Request]:
        pqueue = self._pqueue
        while pqueue:
            req = heappop(pqueue)[2]
            if req is not None:
                del self._pentries[req]
                self._waiting -= 1
                return req
        return None

    def _discard(self, request: Request) -> bool:
        entry = self._pentries.pop(request, None)
        if entry is None:
            return False
        entry[2] = None  # lazy deletion: skipped by _pop_next
        self._waiting -= 1
        return True

    def _grant_next(self) -> bool:
        """The base grant loop with the tombstone skip written inline."""
        granted = False
        users = self._users
        capacity = self.capacity
        env = self.env
        pqueue = self._pqueue
        pentries = self._pentries
        while pqueue and len(users) < capacity:
            nxt = heappop(pqueue)[2]
            if nxt is None:
                continue  # tombstone of a cancelled request
            del pentries[nxt]
            self._waiting -= 1
            users.append(nxt)
            nxt._value = env._now - nxt.enqueued_at
            env._seq += 1
            heappush(env._agenda, (env._now + nxt.duration, NORMAL,
                                   env._seq, nxt._wake, nxt))
            granted = True
        return granted


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item as soon as one is available (immediately if the store is
    non-empty).  Items are delivered in put-order to getters in get-order.

    A get event must be waited on promptly: a getter whose callback list
    is empty at ``put`` time (its waiter was interrupted mid-wait, so
    nothing can ever consume the value) is treated as abandoned and
    skipped, keeping the item for the next live getter instead of
    silently losing the message.
    """

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest *live* waiting getter, if any."""
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if getter.callbacks:
                # Inlined getter.succeed(item): a queued getter is
                # untriggered by construction.
                getter._value = item
                env = self.env
                env._seq += 1
                heappush(env._agenda, (env._now, NORMAL, env._seq, getter))
                return
            # Orphaned getter (interrupted waiter): drop it and keep
            # looking -- succeeding it would make the item vanish.
        self._items.append(item)

    def get(self) -> Event:
        """Event firing with the next item (FIFO)."""
        # Built without Event.__init__ (and, when an item is ready,
        # without Event.succeed): one get per delivered message makes
        # these two frames visible in figure-scale profiles.
        env = self.env
        event = Event.__new__(Event)
        event.env = env
        event.callbacks = []
        event._exception = None
        event._processed = False
        items = self._items
        if items:
            event._value = items.popleft()
            env._seq += 1
            heappush(env._agenda, (env._now, NORMAL, env._seq, event))
        else:
            event._value = _PENDING
            self._getters.append(event)
        return event

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (oldest first); for inspection/tests."""
        return list(self._items)
