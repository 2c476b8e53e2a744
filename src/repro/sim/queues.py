"""Fast queueing primitives used by the hardware models.

The generic :class:`~repro.sim.resources.Resource` costs three events per
acquire/hold/release cycle.  The models in :mod:`repro.hw` push enough
operations that this matters, so this module provides *reservation-based*
servers that need only **one** event per operation:

* :class:`FifoServer` — a single FIFO server.  ``serve(duration)`` computes
  the completion time analytically (``max(now, free_at) + duration``) and
  returns a single timeout event.  Exactly models a non-preemptive FIFO
  queue with deterministic service, which is how we model NVMe channels and
  serial links.  ``serve(duration, *delays)`` folds the caller's pure
  sleeps that follow the service into the same event; ``serve_then``
  does so for the server's own access latency.
* :class:`PooledServer` — ``n`` identical FIFO servers sharing one queue
  (an M/G/n-style station).  Completion times are computed with a heap of
  per-server free times.  Models CPU core pools; ``execute(duration,
  *delays)`` chains trailing sleeps like ``serve``.
* :class:`BandwidthPipe` — a duplex-less byte pipe: transfers are chopped
  into chunks that interleave fairly through a :class:`FifoServer`, so a
  small message never waits behind more than the in-flight chunks of large
  transfers.  Models NIC links and PCIe lanes.

  The pipe is *event-lean*: while a transfer is alone on the pipe its whole
  remaining payload is reserved analytically in one step (one event instead
  of one per chunk — exactly equivalent, since no interleaving partner
  exists), and the pipe falls back to chunked reservation only while two or
  more transfers overlap.  A transfer that arrives mid-coalesce *revokes*
  the untransmitted tail of the resident reservation at the next chunk
  boundary, so the documented fairness bound — a new arrival waits at most
  the in-flight chunk(s), never a whole large transfer — is preserved.
  See DESIGN.md §9 for the exactness argument.

All of them track cumulative busy time so utilization can be reported.
"""

from __future__ import annotations

import heapq
from math import ceil
from typing import Generator, Optional, Tuple

from repro.sim.core import Environment, Event, Process, Timeout

__all__ = ["FifoServer", "PooledServer", "BandwidthPipe"]


class FifoServer:
    """A single non-preemptive FIFO server with deterministic service times.

    ``serve()`` *reserves* the server immediately: the caller is queued at
    its current position and receives an event that fires when its service
    completes.  This collapses queueing to O(1) state (the time the server
    next becomes free).
    """

    __slots__ = ("env", "rate", "name", "_free_at", "busy_time", "ops", "_stats")

    def __init__(self, env: Environment, rate: Optional[float] = None,
                 name: Optional[str] = None) -> None:
        self.env = env
        #: Optional service rate in units/second for :meth:`serve_units`.
        self.rate = rate
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self._free_at = 0.0
        #: Cumulative seconds of service performed (for utilization).
        self.busy_time = 0.0
        #: Number of operations served.
        self.ops = 0
        #: Optional telemetry station (attached only while sampling).
        self._stats = None

    def attach_stats(self, stats) -> None:
        """Attach a :class:`~repro.sim.timeseries.StationStats` recorder.

        The hot loop pays one ``is not None`` test when detached; with a
        recorder attached every reservation reports its arrival and
        (analytically known) completion time, feeding the in-flight gauge
        and the Little's-law self-check.
        """
        self._stats = stats

    @property
    def free_at(self) -> float:
        """Earliest time the server becomes idle."""
        return self._free_at

    @property
    def backlog(self) -> float:
        """Seconds of already-reserved work ahead of a new arrival."""
        return max(0.0, self._free_at - self.env.now)

    def serve(self, duration: float, *delays: float) -> Timeout:
        """Reserve ``duration`` seconds of service; event fires at completion.

        Trailing ``delays`` are the caller's own pure sleeps after the
        service: the event then fires where ``yield serve(duration)``
        followed by one ``yield env.timeout(d)`` per delay would wake the
        caller, with one kernel event (see :func:`_chained_wake`).
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        if delays and min(delays) < 0:
            raise ValueError(f"negative extra delay {min(delays)}")
        env = self.env
        now = env._now
        free = self._free_at
        start = free if free > now else now
        done = start + duration
        self._free_at = done
        self.busy_time += duration
        self.ops += 1
        if delays:
            return _chained_wake(self, now, start, duration, done, delays, 0.0)
        if self._stats is not None:
            self._stats.record(now, done)
        wt = env._wait_tracer
        if wt is not None:
            wt.reserve(self.name, start - now, duration)
        return env.timeout(done - now)

    def serve_then(self, duration: float, extra_delay: float) -> Timeout:
        """Reserve ``duration`` of service, then the server's own latency.

        Like ``serve(duration, extra_delay)``, but the wait tracer books
        ``extra_delay`` on this server as its post-service latency (a
        device's access latency) rather than leaving it unattributed.
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        if extra_delay < 0:
            raise ValueError(f"negative extra delay {extra_delay}")
        now = self.env._now
        free = self._free_at
        start = free if free > now else now
        done = start + duration
        self._free_at = done
        self.busy_time += duration
        self.ops += 1
        return _chained_wake(self, now, start, duration, done, (extra_delay,),
                             extra_delay)

    def serve_units(self, units: float) -> Timeout:
        """Serve ``units`` of work at the configured ``rate``."""
        if self.rate is None:
            raise ValueError("server has no rate configured; use serve(duration)")
        return self.serve(units / self.rate)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time busy over ``elapsed`` (default: since t=0)."""
        span = self.env.now if elapsed is None else elapsed
        return 0.0 if span <= 0 else min(1.0, self.busy_time / span)


class PooledServer:
    """``n`` identical FIFO servers fed from a single queue.

    Like :class:`FifoServer` but with a heap of per-server free times: a new
    operation is assigned to the earliest-free server.  This is the
    standard work-conserving multi-server station and models a CPU core
    pool under non-preemptive dispatch.
    """

    __slots__ = ("env", "n", "name", "_free", "busy_time", "ops", "_stats")

    def __init__(self, env: Environment, n: int,
                 name: Optional[str] = None) -> None:
        if n <= 0:
            raise ValueError(f"need at least one server, got {n}")
        self.env = env
        self.n = int(n)
        #: Resource name for wait-cause attribution (None = anonymous).
        self.name = name
        self._free = [0.0] * self.n
        heapq.heapify(self._free)
        self.busy_time = 0.0
        self.ops = 0
        #: Optional telemetry station (attached only while sampling).
        self._stats = None

    def attach_stats(self, stats) -> None:
        """Attach a :class:`~repro.sim.timeseries.StationStats` recorder."""
        self._stats = stats

    @property
    def earliest_free(self) -> float:
        """Time the least-loaded server becomes idle."""
        return self._free[0]

    def execute(self, duration: float, *delays: float) -> Timeout:
        """Reserve ``duration`` seconds on the earliest-free server.

        Trailing ``delays`` are the caller's own pure sleeps, chained into
        the one event as in :meth:`FifoServer.serve`.
        """
        if duration < 0:
            raise ValueError(f"negative service duration {duration}")
        if delays and min(delays) < 0:
            raise ValueError(f"negative extra delay {min(delays)}")
        env = self.env
        now = env._now
        free = heapq.heappop(self._free)
        start = free if free > now else now
        done = start + duration
        heapq.heappush(self._free, done)
        self.busy_time += duration
        self.ops += 1
        if delays:
            return _chained_wake(self, now, start, duration, done, delays, 0.0)
        if self._stats is not None:
            self._stats.record(now, done)
        wt = env._wait_tracer
        if wt is not None:
            wt.reserve(self.name, start - now, duration)
        return env.timeout(done - now)

    def backlog(self) -> float:
        """Seconds until the earliest server frees up (0 if any is idle)."""
        return max(0.0, self._free[0] - self.env.now)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean per-server busy fraction over ``elapsed`` (default since 0)."""
        span = self.env.now if elapsed is None else elapsed
        return 0.0 if span <= 0 else min(1.0, self.busy_time / (span * self.n))


def _chained_wake(srv, now: float, start: float, duration: float, done: float,
                  delays: Tuple[float, ...], latency: float) -> Timeout:
    """The one wake-up event of a reservation followed by pure sleeps.

    ``serve`` would fire at ``now + (done - now)`` and each chained
    ``timeout(d)`` at the previous instant plus ``d``.  The absolute fire
    time repeats those float additions verbatim and is scheduled with
    ``timeout_until``, which never re-rounds through a relative delay, so
    the event fires at the bit-identical instant.  Its place among
    *equal-time* events is not kept: the event takes its heap sequence
    number now, not at the end of the reservation, so it pops ahead of
    an event scheduled in between for the same instant.

    The wait tracer books ``latency`` as the server's post-service
    latency (``serve_then``: a device's access latency).  Chained caller
    sleeps book none: the tracer sees only the reservation, which is what
    reserve-then-sleep shows when the sleeping process has no open span,
    since an unattributed sleep is not recorded.  A caller with an open
    span keeps the two events, so the sleep lands in its span.
    """
    when = now + (done - now)
    for delay in delays:
        when += delay
    env = srv.env
    if srv._stats is not None:
        srv._stats.record(now, done)
    wt = env._wait_tracer
    if wt is not None:
        wt.reserve(srv.name, start - now, duration, latency)
    return env.timeout_until(when)


class BandwidthPipe:
    """A shared serial byte pipe with chunk-level fair interleaving.

    A transfer of ``nbytes`` is broken into ``chunk_bytes`` pieces; each
    piece reserves the underlying :class:`FifoServer` only when the
    previous piece finishes, so concurrent transfers interleave at chunk
    granularity (approximating per-packet fair sharing).  A fixed
    ``latency`` is added once per transfer.

    **Coalescing fast path** (``coalesce=True``, the default): while a
    transfer is the *only* one in the pipe's data phase, its entire
    remaining payload is reserved in one analytic step and the transfer
    sleeps on a single event — the completion time, busy-time and op
    accounting are accumulated chunk-by-chunk in plain floats, so the
    outcome is bit-identical to serving every chunk through the event
    loop.  If a second transfer arrives mid-coalesce, the resident
    reservation is *revoked* at the next chunk boundary: the server gets
    the untransmitted tail back, the owner is re-woken at its in-flight
    chunk's completion, and both transfers continue in classic chunked
    mode.  Thus uncontended transfers cost one event regardless of size,
    while overlapping transfers keep the documented fairness bound (a new
    arrival waits for at most the chunk in flight).

    Use from a process as ``yield from pipe.transfer(nbytes)``.
    """

    __slots__ = ("env", "bandwidth", "latency", "chunk_bytes", "_server",
                 "bytes_moved", "coalesce", "_inflight", "_co_gate",
                 "_co_start", "_co_done", "_co_busy0", "_co_bytes",
                 "_co_unsent", "coalesced_ops", "revoked_ops")

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        latency: float = 0.0,
        chunk_bytes: int = 64 * 1024,
        coalesce: bool = True,
        name: Optional[str] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
        self.env = env
        #: Bytes per second.
        self.bandwidth = float(bandwidth)
        #: One-way propagation + fixed per-message latency in seconds.
        self.latency = float(latency)
        self.chunk_bytes = int(chunk_bytes)
        # The internal server carries the pipe's wait-attribution name so
        # chunk reservations and the latency stage blame the same resource.
        self._server = FifoServer(env, name=name)
        #: Total payload bytes moved (for reports).
        self.bytes_moved = 0
        #: Enable the single-event fast path for uncontended transfers.
        #: ``coalesce=False`` forces the classic chunk-per-event behaviour
        #: (the reference the equivalence tests compare against).
        self.coalesce = bool(coalesce)
        #: Transfers currently in the data phase (past the latency stage).
        self._inflight = 0
        # Active coalesced reservation (None when nobody is coalescing):
        # the gate event the owner sleeps on, the transmission start time,
        # the reserved completion time, the server busy_time before the
        # reservation, and the reserved byte count.
        self._co_gate: Optional[Timeout] = None
        self._co_start = 0.0
        self._co_done = 0.0
        self._co_busy0 = 0.0
        self._co_bytes = 0
        #: Set by a revocation: bytes the owner must re-send chunked.
        self._co_unsent = 0
        #: Count of coalesced reservations (perf accounting).
        self.coalesced_ops = 0
        #: Count of revocations (contention arriving mid-coalesce).
        self.revoked_ops = 0

    @property
    def name(self) -> Optional[str]:
        """Resource name for wait-cause attribution (None = anonymous)."""
        return self._server.name

    @property
    def busy_time(self) -> float:
        """Cumulative seconds the pipe spent transmitting."""
        return self._server.busy_time

    @property
    def inflight(self) -> int:
        """Transfers currently in the data phase."""
        return self._inflight

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the pipe was transmitting."""
        return self._server.utilization(elapsed)

    def transfer(self, nbytes: int) -> Generator[Event, None, None]:
        """Move ``nbytes`` through the pipe; completes after the last chunk.

        This is a plain generator intended for ``yield from`` inside a
        simulation process (no extra :class:`Process` is spawned).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.bytes_moved += nbytes
        if self.latency:
            wt = self.env._wait_tracer
            if wt is not None:
                # Pure propagation, blamed on the pipe (not a generic sleep).
                wt.reserve(self._server.name, 0.0, 0.0, self.latency)
            yield self.env.timeout(self.latency)
        if nbytes == 0:
            return
        self._inflight += 1
        if self._inflight == 2 and self._co_gate is not None:
            # Contention arrived while someone coalesced: claw back the
            # untransmitted tail so we only wait for the chunk in flight.
            self._revoke()
        srv = self._server
        bw = self.bandwidth
        chunk = self.chunk_bytes
        if nbytes <= chunk:
            # One chunk: a coalesced reservation would be this very serve
            # (same float additions) and can never be revoked, so skip its
            # bookkeeping and keep only the accounting.
            if (self._inflight == 1 and self.coalesce and srv._stats is None
                    and self.env._wait_tracer is None):
                self.coalesced_ops += 1
            try:
                yield srv.serve(nbytes / bw)
            finally:
                self._inflight -= 1
            return
        try:
            remaining = nbytes
            # Loop-invariant coalescing eligibility (only ``_inflight``
            # changes mid-transfer; a telemetry recorder or wait tracer is
            # attached between runs, never mid-transfer).  With a wait
            # tracer installed we stay chunked so every reservation is
            # observed individually — the chunked path is exactly
            # equivalent by construction (DESIGN.md §9).
            can_coalesce = (self.coalesce and srv._stats is None
                            and self.env._wait_tracer is None)
            while remaining > 0:
                if can_coalesce and self._inflight == 1:
                    # Alone on the pipe: one analytic reservation, one event.
                    # (With a telemetry recorder attached we stay chunked so
                    # per-chunk station records are preserved exactly;
                    # samplers only probe pipes via busy_time in practice.)
                    gate = self._reserve_remaining(remaining)
                    try:
                        yield gate
                    except BaseException:
                        # Interrupted/killed mid-coalesce: hand back the
                        # untransmitted tail so the pipe is not left
                        # spuriously busy (chunked mode loses at most the
                        # chunk in flight; so do we).
                        if self._co_gate is gate:
                            self._abort_coalesced()
                        raise
                    if self._co_gate is gate:
                        # Ran to completion un-revoked.
                        self._co_gate = None
                        remaining = 0
                    else:
                        # Revoked: continue with the clawed-back tail.
                        remaining = self._co_unsent
                        self._co_unsent = 0
                else:
                    take = chunk if remaining > chunk else remaining
                    yield srv.serve(take / bw)
                    remaining -= take
        finally:
            self._inflight -= 1

    # -- coalescing internals ------------------------------------------------
    def _reserve_remaining(self, nbytes: int) -> Timeout:
        """Reserve ``nbytes`` on the server analytically; return the gate.

        Completion time, busy time and op count are accumulated with the
        same per-chunk float additions the chunked path performs, so the
        reservation is bit-identical to serving each chunk individually.
        """
        env = self.env
        srv = self._server
        now = env._now
        free = srv._free_at
        start = free if free > now else now
        bw = self.bandwidth
        chunk = self.chunk_bytes
        full, tail = divmod(nbytes, chunk)
        chunk_time = chunk / bw
        busy0 = srv.busy_time
        done = start
        busy = busy0
        for _ in range(full):
            done += chunk_time
            busy += chunk_time
        if tail:
            tail_time = tail / bw
            done += tail_time
            busy += tail_time
        srv._free_at = done
        srv.busy_time = busy
        srv.ops += full + (1 if tail else 0)
        if srv._stats is not None:  # pragma: no cover - guarded by caller
            srv._stats.record(now, done)
        wt = env._wait_tracer
        if wt is not None:  # pragma: no cover - guarded by caller
            wt.reserve(srv.name, start - now, done - start)
        gate = env.timeout(done - now)
        self._co_gate = gate
        self._co_start = start
        self._co_done = done
        self._co_busy0 = busy0
        self._co_bytes = nbytes
        self._co_unsent = 0
        self.coalesced_ops += 1
        return gate

    def _rollback_tail(self) -> int:
        """Give the server back every chunk not yet in flight.

        Under chunked reservation the owner would, at this instant, have
        completed every chunk that ended before ``now`` and hold the next
        one in flight; everything beyond that is returned.  The chunk ends
        are the running sums the reservation itself accumulated (``start +
        chunk_time + chunk_time + ...``), so the rebuilt ``free_at`` never
        lies before ``now``.  (Dividing the elapsed time by ``chunk_time``
        instead can land a few ulps short of a boundary and rebuild
        ``free_at`` in the past.)  A chunk ending exactly at ``now`` counts
        as finished, with the owner's next chunk in flight: a chunked run
        orders it so whenever the arrival's wake-up was scheduled after
        the owner's previous chunk boundary, as when it comes off an
        upstream pipe of the same rate.  Returns the number of unsent
        bytes (0 if only the tail remained — nothing to revoke).
        """
        srv = self._server
        now = self.env._now
        nbytes = self._co_bytes
        chunk = self.chunk_bytes
        chunk_time = chunk / self.bandwidth
        total_chunks = ceil(nbytes / chunk)
        # Rebuild the state a chunked run would have after ``committed``
        # chunks: same additions, same order — exact, not approximate.
        new_done = self._co_start
        busy = self._co_busy0
        committed = 0
        while committed < total_chunks - 1:
            new_done += chunk_time
            busy += chunk_time
            committed += 1
            if new_done > now:
                break
        else:
            return 0  # the final chunk/tail is already in flight
        srv._free_at = new_done
        srv.busy_time = busy
        srv.ops -= total_chunks - committed
        return nbytes - committed * chunk

    def _revoke(self) -> None:
        """A second transfer arrived mid-coalesce: truncate and re-wake."""
        gate = self._co_gate
        unsent = self._rollback_tail()
        if unsent == 0:
            return  # reservation is effectively all in flight; leave it
        env = self.env
        self._co_unsent = unsent
        self._co_gate = None
        self.revoked_ops += 1
        # Re-wake the owner at its in-flight chunk's completion instead of
        # the original (now rolled-back) completion time.  The old gate
        # stays in the event heap and fires inert (callbacks emptied); the
        # waiter — including its Process._target bookkeeping, so interrupts
        # keep working — moves to a fresh gate.
        wt = env._wait_tracer
        if wt is not None:
            # Tracer installed mid-coalesce: the re-wake is bookkeeping for
            # an already-recorded reservation, not a new wait.
            wt._claimed = True
        new_gate = env.timeout(self._server._free_at - env.now)
        callbacks = gate.callbacks
        gate.callbacks = []
        if callbacks:
            new_gate.callbacks.extend(callbacks)
            for cb in callbacks:
                owner = getattr(cb, "__self__", None)
                if isinstance(owner, Process) and owner._target is gate:
                    owner._target = new_gate

    def _abort_coalesced(self) -> None:
        """The coalescing owner died mid-wait: return the unsent tail."""
        gate = self._co_gate
        self._co_gate = None
        self._rollback_tail()
        if gate is not None and gate.callbacks is not None:
            gate.callbacks = []  # fires inert

    def transfer_time_estimate(self, nbytes: int) -> float:
        """Uncontended time to move ``nbytes`` (latency + serialization)."""
        return self.latency + nbytes / self.bandwidth

    def n_chunks(self, nbytes: int) -> int:
        """Number of chunks a transfer of ``nbytes`` is split into."""
        return max(1, ceil(nbytes / self.chunk_bytes)) if nbytes else 0
