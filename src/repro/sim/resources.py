"""Capacity-limited resources, stores and containers.

These are the queueing building blocks for the hardware models:

* :class:`Resource` — ``capacity`` identical servers (CPU cores, NVMe
  submission slots).  FIFO grant order.
* :class:`PriorityResource` — like :class:`Resource` but grants by
  ``(priority, fifo)`` order; used for QoS experiments.
* :class:`Store` — an unbounded/bounded FIFO of Python objects (message
  queues, completion queues).
* :class:`Mailbox` — a message inbox that hands arrivals to registered
  listeners, one kernel event per same-instant batch.
* :class:`Container` — a continuous level (bytes of buffer pool, tokens).

All request/put/get operations return events.  Requests support use as
context managers inside processes::

    with cpu.request() as req:
        yield req
        yield env.timeout(cost)

which guarantees release even if the process is interrupted while queued.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, List, Tuple

from repro.sim.core import PENDING, Environment, Event, SimulationError

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "StorePut",
    "StoreGet",
    "Store",
    "Listener",
    "Mailbox",
    "ContainerPut",
    "ContainerGet",
    "Container",
]


class Request(Event):
    """Event that fires when the resource grants a slot to the requester."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

    def cancel(self) -> None:
        """Withdraw the request (granted slot is released, queued one dropped)."""
        self.resource.release(self)

    # Context-manager protocol: ``with res.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.cancel()


class Release(Event):
    """Immediately-successful event produced by :meth:`Resource.release`.

    Born processed: releasing never blocks, so no kernel event is
    scheduled — a process yielding it continues at the same instant via
    the already-processed fast path.
    """

    __slots__ = ()

    def __init__(self, env: Environment) -> None:
        super().__init__(env)
        self._succeed_inline()


class Resource:
    """``capacity`` identical servers granted to requests in FIFO order.

    Hot-path notes (DESIGN.md §9): an immediately-grantable request is
    born processed (no kernel event), releasing a slot removes the user
    by *swap-remove* — O(1), valid because the order of ``users`` is not
    observable — and only the FIFO *grant* order of queued requests is
    part of the contract (pinned by a regression test).
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: "str | None" = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self.users: List[Request] = []
        self._init_waiters()

    def _init_waiters(self) -> None:
        self.queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self._capacity

    @property
    def count(self) -> int:
        """Slots currently granted."""
        return len(self.users)

    def request(self) -> Request:
        """Ask for one slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Return a slot (or withdraw a queued request)."""
        users = self.users
        try:
            i = users.index(request)
        except ValueError:
            self._withdraw(request)  # queued (or stale): drop from the queue
        else:
            # Swap-remove: O(1); ``users`` order is not observable.
            last = users.pop()
            if last is not request:
                users[i] = last
            self._grant_next()
        return Release(self.env)

    # -- internals ----------------------------------------------------------
    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self.users.append(request)
            request._succeed_inline()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(request, self.name)
            self.queue.append(request)

    def _withdraw(self, request: Request) -> None:
        """Remove a queued (never granted) request; no-op if unknown."""
        try:
            self.queue.remove(request)
        except ValueError:
            pass  # releasing twice is a no-op by design
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.cancel_block(request)

    def _grant_next(self) -> None:
        wt = self.env._wait_tracer
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            if wt is not None:
                wt.end_block(nxt)
            nxt.succeed()


class PriorityRequest(Request):
    """Request carrying a priority (lower value = more urgent)."""

    __slots__ = ("priority", "_seq")

    def __init__(self, resource: "PriorityResource", priority: int) -> None:
        self.priority = priority
        self._seq = resource._next_seq()
        super().__init__(resource)

    @property
    def key(self) -> tuple:
        return (self.priority, self._seq)


class PriorityResource(Resource):
    """Resource granting queued requests in ``(priority, arrival)`` order.

    The waiter queue is a binary heap keyed by ``(priority, seq)`` —
    O(log n) per enqueue/dequeue instead of the previous full re-sort per
    arrival.  Withdrawing a queued request (``release()`` before grant)
    uses *lazy deletion*: the entry stays in the heap and is skipped by
    :meth:`_grant_next` once it is no longer in the live set.
    """

    def __init__(self, env: Environment, capacity: int = 1,
                 name: "str | None" = None) -> None:
        self._seq = 0
        super().__init__(env, capacity, name)

    def _init_waiters(self) -> None:
        self._heap: List[Tuple[int, int, PriorityRequest]] = []
        self._queued: set = set()

    @property
    def queue(self) -> Tuple[PriorityRequest, ...]:
        """Live queued requests in grant order (for introspection/tests)."""
        return tuple(
            r for _, _, r in sorted(self._heap) if id(r) in self._queued
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        """Ask for one slot with ``priority`` (lower is served first)."""
        return PriorityRequest(self, priority)

    def _do_request(self, request: PriorityRequest) -> None:  # type: ignore[override]
        if len(self.users) < self._capacity:
            self.users.append(request)
            request._succeed_inline()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(request, self.name)
            heappush(self._heap, (request.priority, request._seq, request))
            self._queued.add(id(request))

    def _withdraw(self, request: Request) -> None:
        self._queued.discard(id(request))
        wt = self.env._wait_tracer
        if wt is not None:
            wt.cancel_block(request)

    def _grant_next(self) -> None:
        heap = self._heap
        queued = self._queued
        wt = self.env._wait_tracer
        while heap and len(self.users) < self._capacity:
            _, _, nxt = heap[0]
            if id(nxt) not in queued:  # lazily-deleted tombstone
                heappop(heap)
                continue
            heappop(heap)
            queued.discard(id(nxt))
            self.users.append(nxt)
            if wt is not None:
                wt.end_block(nxt)
            nxt.succeed()


class StorePut(Event):
    """Fires when the item has been accepted into the store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        # Flattened Event.__init__ (no super() frame): one StorePut is
        # allocated per delivered message — a top-five allocation site.
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    """Fires with the retrieved item as its value."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        # Flattened Event.__init__ (see StorePut).
        self.env = store.env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        store._do_get(self)


class Store:
    """FIFO store of arbitrary items with optional capacity bound."""

    def __init__(self, env: Environment, capacity: float = float("inf"),
                 name: "str | None" = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Offer ``item``; fires when there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Take the oldest item; fires when one is available."""
        return StoreGet(self)

    def put_nowait(self, item: Any) -> None:
        """Offer ``item`` without allocating an event (the store must have room).

        Same outcome as an immediately-satisfiable :meth:`put`: a parked
        getter is woken with the item, otherwise the item is queued.
        """
        if self._getters:
            getter = self._getters.popleft()
            wt = self.env._wait_tracer
            if wt is not None:
                wt.end_block(getter)
            getter.succeed(item)
        elif len(self.items) < self.capacity:
            self.items.append(item)
        else:
            raise SimulationError(f"put_nowait on full store {self.name!r}")

    def get_nowait(self) -> Any:
        """Take the oldest item without allocating an event (must not be empty).

        Same outcome as an immediately-satisfiable :meth:`get`.
        """
        item = self.items.popleft()
        if self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            wt = self.env._wait_tracer
            if wt is not None:
                wt.end_block(putter)
            self.items.append(putter.item)
            putter.succeed()
        return item

    # -- internals ----------------------------------------------------------
    # Immediately-satisfiable puts/gets are born processed (no kernel
    # event): the freshly-constructed event has no callbacks yet, so the
    # yielding process continues inline at the same simulated time.
    # Parked counterparts woken here (``putter``/``getter``) *do* have a
    # waiter attached and are scheduled normally via ``succeed``.
    def _do_put(self, event: StorePut) -> None:
        if self._getters or len(self.items) < self.capacity:
            self.put_nowait(event.item)
            event._succeed_inline()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        if self.items:
            item = self.items.popleft()
            event._succeed_inline(item)
            if self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                wt = self.env._wait_tracer
                if wt is not None:
                    wt.end_block(putter)
                self.items.append(putter.item)
                putter.succeed()
        elif self._putters:
            putter = self._putters.popleft()
            wt = self.env._wait_tracer
            if wt is not None:
                wt.end_block(putter)
            event._succeed_inline(putter.item)
            putter.succeed()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._getters.append(event)


class Listener:
    """A consumer registered on a :class:`Mailbox`; see :meth:`Mailbox.listen`."""

    __slots__ = ("mailbox", "fn")

    def __init__(self, mailbox: "Mailbox", fn: Callable[[Any], None]) -> None:
        self.mailbox = mailbox
        self.fn = fn

    @property
    def is_alive(self) -> bool:
        """True until :meth:`close`."""
        return self in self.mailbox._listeners

    def close(self) -> None:
        """Stop delivery to this consumer; later arrivals queue in the mailbox."""
        try:
            self.mailbox._listeners.remove(self)
        except ValueError:
            pass


class Mailbox(Store):
    """An unbounded message inbox that hands arrivals to listeners.

    With no listener it is a plain :class:`Store`: ``get()`` parks until a
    message arrives.  Once a listener is registered, an arrival costs no
    receiving process at all: the first arrival of an instant schedules one
    delivery event, where a parked receiver's wake-up would sit, and that
    event hands every message queued by then to the listeners in arrival
    order (round-robin when several listen).  Arrivals during the delivery
    itself start the next batch.  A listener runs inside the kernel
    callback, so a request handler it starts with
    :meth:`~repro.sim.core.Environment.process_inline` takes its first step
    exactly where a receive loop's freshly spawned handler would have.
    See DESIGN.md §9.
    """

    def __init__(self, env: Environment, name: "str | None" = None) -> None:
        super().__init__(env, name=name)
        self._listeners: List[Listener] = []
        self._delivery_due = False
        # One delivery event, rescheduled per batch: at most one is due at
        # a time and nothing outside this class can wait on it.
        self._wake = Event(env)
        self._wake._value = None
        self._wake_callbacks = [self._deliver]

    def listen(self, fn: Callable[[Any], None]) -> Listener:
        """Call ``fn(message)`` for every arrival until the listener closes."""
        listener = Listener(self, fn)
        self._listeners.append(listener)
        if self.items and not self._delivery_due:
            self._schedule_delivery()
        return listener

    def put_nowait(self, item: Any) -> None:
        # ``put()`` lands here too (Store._do_put): the mailbox never fills.
        if not self._listeners:
            super().put_nowait(item)
            return
        self.items.append(item)
        if not self._delivery_due:
            self._schedule_delivery()

    def _schedule_delivery(self) -> None:
        self._delivery_due = True
        wake = self._wake
        wake.callbacks = self._wake_callbacks
        self.env.schedule(wake)

    def _deliver(self, _event: Event) -> None:
        self._delivery_due = False
        items = self.items
        listeners = self._listeners
        for _ in range(len(items)):
            if not listeners:
                break  # the last listener closed mid-batch: the rest queue
            listener = listeners[0]
            if len(listeners) > 1:
                listeners.append(listeners.pop(0))
            listener.fn(items.popleft())


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._do_put(self)


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, container: "Container", amount: float) -> None:
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        container._do_get(self)


class Container:
    """A continuous quantity with blocking put/get (token buckets, pools)."""

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: "str | None" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.env = env
        self.capacity = capacity
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self._level = float(init)
        self._putters: Deque[ContainerPut] = deque()
        self._getters: Deque[ContainerGet] = deque()

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; fires once it fits under ``capacity``."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; fires once the level covers it."""
        return ContainerGet(self, amount)

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: ContainerPut) -> None:
        if self._level + event.amount <= self.capacity:
            self._level += event.amount
            event._succeed_inline()
            self._serve_getters()
        else:
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._putters.append(event)

    def _do_get(self, event: ContainerGet) -> None:
        if event.amount <= self._level:
            self._level -= event.amount
            event._succeed_inline()
            self._serve_putters()
        else:
            if event.amount > self.capacity:
                event.fail(
                    SimulationError(
                        f"get({event.amount}) exceeds container capacity {self.capacity}"
                    )
                )
                return
            wt = self.env._wait_tracer
            if wt is not None:
                wt.begin_block(event, self.name)
            self._getters.append(event)

    def _serve_getters(self) -> None:
        wt = self.env._wait_tracer
        while self._getters and self._getters[0].amount <= self._level:
            g = self._getters.popleft()
            self._level -= g.amount
            if wt is not None:
                wt.end_block(g)
            g.succeed()

    def _serve_putters(self) -> None:
        wt = self.env._wait_tracer
        while self._putters and self._level + self._putters[0].amount <= self.capacity:
            p = self._putters.popleft()
            self._level += p.amount
            if wt is not None:
                wt.end_block(p)
            p.succeed()
