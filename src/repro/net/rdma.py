"""RDMA verbs transport model.

Functional semantics follow the verbs API closely enough to express the
paper's security discussion (§2.3) and ROS2's multi-tenant design:

* :class:`RdmaDevice` — one per node (the ConnectX / BlueField NIC).
* :class:`ProtectionDomain` — the isolation unit; QPs and MRs belong to a
  PD, and one-sided access with an rkey from a different PD is rejected.
* :class:`MemoryRegion` — a registered buffer window with ``lkey``/``rkey``
  and access flags; may carry a real ``bytearray``/NumPy buffer (functional
  mode) or be *virtual* (performance mode).  Regions can be bounded in
  time (scoped rkeys) and revoked.
* :class:`QueuePair` — reliable-connected QP with SEND/RECV plus one-sided
  READ/WRITE, each raising :class:`AccessViolation` on rkey/bounds/PD/flag
  violations instead of silently moving data.
* :class:`CompletionQueue` — completions as a store the owner drains.

Timing (constants in :data:`repro.hw.specs.RDMA_COSTS`): the initiator
pays ``tx_cpu_per_op`` to post and poll; payload bytes cross the switch at
``goodput_efficiency`` with **zero per-byte CPU anywhere** (zero-copy DMA);
one-sided ops cost the target **nothing**; two-sided delivery charges the
target ``rx_cpu_per_op`` for its CQ poll.  Messages above
``rendezvous_threshold`` pay one extra control round-trip (RTS/CTS) —
the rendezvous protocol §3.2 uses to amortize per-message overhead on
large sequential I/O.  The wire's pure delays after the post (stack
latency, round trip, propagation) ride the post's CPU reservation as one
kernel event unless a span is being recorded (DESIGN.md §9).
"""

from __future__ import annotations

import enum
import itertools
from math import inf
from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.hw.nic import Route
from repro.hw.platform import ComputeNode
from repro.hw.specs import RDMA_COSTS, TransportCosts
from repro.net.message import HEADER_BYTES
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.resources import Store

__all__ = [
    "AccessFlags",
    "AccessViolation",
    "RdmaError",
    "MemoryRegion",
    "ProtectionDomain",
    "CompletionQueue",
    "Completion",
    "QueuePair",
    "RdmaDevice",
]


class RdmaError(RuntimeError):
    """Generic RDMA failure (bad state, disconnected QP...)."""


class AccessViolation(RdmaError):
    """A one-sided operation failed its rkey / bounds / PD / flags check."""


class AccessFlags(enum.IntFlag):
    """MR access permissions (subset of ibv_access_flags)."""

    LOCAL_READ = 0x1
    LOCAL_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_WRITE = 0x8

    @classmethod
    def local_only(cls) -> "AccessFlags":
        return cls.LOCAL_READ | cls.LOCAL_WRITE

    @classmethod
    def remote_rw(cls) -> "AccessFlags":
        return cls.LOCAL_READ | cls.LOCAL_WRITE | cls.REMOTE_READ | cls.REMOTE_WRITE


_key_counter = itertools.count(0x1000)
_addr_counter = itertools.count(0x10_0000_0000)
_qp_counter = itertools.count(1)


class MemoryRegion:
    """A registered memory window.

    ``buffer`` is optional: when present (bytearray or 1-D uint8 NumPy
    array) one-sided operations move real bytes; when absent the region is
    virtual and only sizes/permissions are enforced.
    """

    __slots__ = (
        "pd", "addr", "length", "lkey", "rkey", "flags",
        "buffer", "valid_until", "_revoked",
    )

    def __init__(
        self,
        pd: "ProtectionDomain",
        length: int,
        flags: AccessFlags,
        buffer: Optional[Any] = None,
        valid_until: Optional[float] = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"MR length must be positive, got {length}")
        if buffer is not None and len(buffer) < length:
            raise ValueError(
                f"buffer of {len(buffer)} bytes cannot back an MR of {length}"
            )
        self.pd = pd
        self.addr = next(_addr_counter)
        self.length = int(length)
        self.lkey = next(_key_counter)
        self.rkey = next(_key_counter)
        self.flags = flags
        self.buffer = buffer
        #: Simulated-time expiry for scoped rkeys (ROS2 tenant capability).
        self.valid_until = valid_until
        self._revoked = False

    @property
    def revoked(self) -> bool:
        """True once deregistered or explicitly revoked."""
        return self._revoked

    def revoke(self) -> None:
        """Invalidate the region's keys immediately."""
        self._revoked = True

    def expired(self, now: float) -> bool:
        """True if a scoped rkey has passed its validity window."""
        return self.valid_until is not None and now > self.valid_until

    def contains(self, addr: int, nbytes: int) -> bool:
        """Whether ``[addr, addr+nbytes)`` lies inside the region."""
        return self.addr <= addr and addr + nbytes <= self.addr + self.length

    def read_bytes(self, addr: int, nbytes: int) -> Optional[bytes]:
        """Copy real bytes out (None for virtual regions)."""
        if self.buffer is None:
            return None
        off = addr - self.addr
        return bytes(memoryview(self.buffer)[off:off + nbytes])

    def write_bytes(self, addr: int, data: Any) -> None:
        """Copy real bytes in (no-op for virtual regions)."""
        if self.buffer is None or data is None:
            return
        off = addr - self.addr
        view = memoryview(self.buffer)
        view[off:off + len(data)] = bytes(data)


class ProtectionDomain:
    """The verbs isolation unit: MRs and QPs that may interoperate."""

    _ids = itertools.count(1)

    def __init__(self, device: "RdmaDevice") -> None:
        self.device = device
        self.pd_id = next(ProtectionDomain._ids)
        self.regions: Dict[int, MemoryRegion] = {}  # rkey -> MR

    def register_mr(
        self,
        length: int,
        flags: AccessFlags = AccessFlags.local_only(),
        buffer: Optional[Any] = None,
        valid_until: Optional[float] = None,
    ) -> MemoryRegion:
        """Register a buffer (or a virtual window) and mint its keys."""
        mr = MemoryRegion(self, length, flags, buffer, valid_until)
        self.regions[mr.rkey] = mr
        return mr

    def deregister_mr(self, mr: MemoryRegion) -> None:
        """Remove the region; its keys stop validating immediately."""
        mr.revoke()
        self.regions.pop(mr.rkey, None)

    def lookup(self, rkey: int) -> Optional[MemoryRegion]:
        """The live region for ``rkey`` within this PD, else None."""
        mr = self.regions.get(rkey)
        if mr is None or mr.revoked:
            return None
        return mr


@dataclass(frozen=True, slots=True)
class Completion:
    """One CQ entry."""

    wr_id: int
    opcode: str  # "send" | "recv" | "read" | "write"
    status: str  # "ok" | error string
    nbytes: int = 0
    payload: Any = None


class CompletionQueue:
    """Completion delivery; owners drain it with ``yield cq.poll()``."""

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._store = Store(env, name="rdma.cq")

    def push(self, completion: Completion) -> None:
        """Add a completion (never blocks)."""
        self._store.put_nowait(completion)

    def poll(self):
        """Event yielding the next completion."""
        return self._store.get()

    def __len__(self) -> int:
        return len(self._store)


class QueuePair:
    """A reliable-connected queue pair.

    All data-moving methods are generators (``yield from``) that complete
    when the operation's ACK would arrive at the initiator.
    """

    def __init__(
        self,
        device: "RdmaDevice",
        pd: ProtectionDomain,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
    ) -> None:
        if pd.device is not device:
            raise RdmaError("PD belongs to a different device")
        self.device = device
        self.pd = pd
        self.qp_num = next(_qp_counter)
        self.env: Environment = device.env
        self.send_cq = send_cq or CompletionQueue(self.env)
        self.recv_cq = recv_cq or CompletionQueue(self.env)
        self.remote: Optional["QueuePair"] = None
        #: Non-None once the QP has transitioned to the error state
        #: (fault injection / fatal transport failure); holds the reason.
        self.error: Optional[str] = None
        self._recv_queue: Store = Store(self.env,
                                        name="rdma.recv_queue")  # posted recv WRs
        #: The switch crossing to the peer, resolved at :meth:`connect`.
        self._route: Optional[Route] = None
        #: Largest SEND/WRITE sent eagerly (no rendezvous round trip).
        threshold = device.costs.rendezvous_threshold
        self._eager_max = inf if threshold is None else threshold

    # -- connection management ---------------------------------------------
    def connect(self, remote: "QueuePair") -> None:
        """Pair two QPs (both directions)."""
        if self.remote is not None or remote.remote is not None:
            raise RdmaError("QP already connected")
        self.remote = remote
        remote.remote = self
        a, b = self.device.node, remote.device.node
        self._route = a.switch.route(a.name, b.name)
        remote._route = b.switch.route(b.name, a.name)

    def transition_to_error(self, reason: str) -> None:
        """Move the QP to the error state and flush its work requests.

        Mirrors IBV_QPS_ERR semantics: posted RECV WRs complete to the
        recv CQ with a flush status, processes parked waiting for a RECV
        to match are failed with :class:`RdmaError`, and every later
        verb on this QP raises until it is replaced (RC QPs cannot be
        repaired in place; recovery creates fresh QPs in the same PD).
        """
        if self.error is not None:
            return
        self.error = reason
        rq = self._recv_queue
        # Flush posted-but-unmatched receive buffers.
        while rq.items:
            wr_id, _mr = rq.items.popleft()
            self.recv_cq.push(Completion(wr_id, "recv", "flush-err"))
        # Fail senders parked on the recv queue (RNR wait) — their SEND
        # can no longer complete.
        exc = RdmaError(f"QP {self.qp_num} flushed: {reason}")
        wt = self.env._wait_tracer
        for getter in list(rq._getters):
            if not getter.triggered:
                if wt is not None:
                    wt.end_block(getter)
                getter.fail(exc)
        rq._getters.clear()

    def _require_remote(self) -> "QueuePair":
        if self.error is not None:
            raise RdmaError(f"QP {self.qp_num} is in the error state: {self.error}")
        if self.remote is None:
            raise RdmaError(f"QP {self.qp_num} is not connected")
        if self.remote.error is not None:
            raise RdmaError(
                f"remote QP {self.remote.qp_num} is in the error state: "
                f"{self.remote.error}"
            )
        return self.remote

    # -- two-sided ------------------------------------------------------------
    def post_recv(self, wr_id: int, mr: Optional[MemoryRegion] = None) -> None:
        """Post a receive work request (buffer optional in virtual mode)."""
        if self.error is not None:
            raise RdmaError(f"QP {self.qp_num} is in the error state: {self.error}")
        self._recv_queue.put_nowait((wr_id, mr))

    def post_send(
        self,
        payload: Any = None,
        nbytes: Optional[int] = None,
        wr_id: int = 0,
        trace: Any = None,
    ) -> Generator[Event, None, Completion]:
        """Two-sided SEND; matches a posted RECV at the peer.

        Returns the initiator-side completion.  The receiver's completion
        (with the payload) lands in its ``recv_cq``.
        """
        size = nbytes if nbytes is not None else _payload_size(payload)
        return self._send(payload, size, wr_id, trace, None)

    def _send(self, payload: Any, size: int, wr_id: int, trace: Any,
              inbox: Any) -> Generator[Event, None, Optional[Completion]]:
        """The one SEND implementation (see :meth:`post_send`).

        A fabric channel passes its peer's ``inbox``: its provider progress
        engine hands ``payload`` (the message) to it on arrival instead of
        matching a posted RECV, and no completion is made — nothing would
        read them.  The timing is the same either way.
        """
        remote = self._require_remote()
        costs = self.device.costs
        if trace is None and size <= self._eager_max:
            yield self._post_eager()
            span = None
        else:
            span = yield from self._post(trace, size, size, "rdma.eager")
        yield from self._route.cross(
            int((size + HEADER_BYTES) / costs.goodput_efficiency))
        if span is not None:
            span.finish()
        if self.error is not None or remote.error is not None:
            # The QP broke while the message was on the wire.
            raise RdmaError(
                f"QP {self.qp_num} failed in flight: "
                f"{self.error or remote.error}"
            )

        rdev = remote.device
        span = trace.child("rdma.recv", node=rdev.node.name, nbytes=size) if trace is not None else None
        if inbox is None:
            # Receiver must have a posted RECV (flow control is the upper
            # layer's job; we block until one is available, like an RC QP
            # with RNR retries).
            rq = remote._recv_queue
            if rq.items:
                wr_id_recv, mr = rq.get_nowait()
            else:
                wr_id_recv, mr = yield rq.get()
            if mr is not None and isinstance(payload, (bytes, bytearray, memoryview)):
                mr.write_bytes(mr.addr, payload)
        yield rdev.node.cpu.execute(costs.rx_cpu_per_op)
        if span is not None:
            span.finish()
        self.device.sent.record(size)
        rdev.received.record(size)
        if inbox is not None:
            inbox.put_nowait(payload)
            return None
        remote.recv_cq.push(Completion(wr_id_recv, "recv", "ok", size, payload))
        comp = Completion(wr_id, "send", "ok", size)
        self.send_cq.push(comp)
        return comp

    # -- one-sided -------------------------------------------------------------
    def rdma_write(
        self,
        remote_addr: int,
        rkey: int,
        payload: Any = None,
        nbytes: Optional[int] = None,
        wr_id: int = 0,
        trace: Any = None,
    ) -> Generator[Event, None, Completion]:
        """One-sided WRITE into the peer's memory.  Zero remote CPU."""
        size = nbytes if nbytes is not None else _payload_size(payload)
        return self._write(remote_addr, rkey, payload, size, wr_id, trace, True)

    def _write(self, remote_addr: int, rkey: int, payload: Any, size: int,
               wr_id: int, trace: Any,
               complete: bool) -> Generator[Event, None, Optional[Completion]]:
        """The one WRITE implementation; a fabric channel skips the
        completion (``complete=False``)."""
        remote = self._require_remote()
        mr = self._validate(remote, remote_addr, size, AccessFlags.REMOTE_WRITE, rkey)
        if trace is None and size <= self._eager_max:
            yield self._post_eager()
            span = None
        else:
            span = yield from self._post(trace, size, size, "rdma.dma")
        yield from self._route.cross(
            int((size + HEADER_BYTES) / self.device.costs.goodput_efficiency))
        if span is not None:
            span.finish()

        if payload is not None:
            mr.write_bytes(remote_addr, payload)
        self.device.sent.record(size)
        remote.device.received.record(size)
        if not complete:
            return None
        comp = Completion(wr_id, "write", "ok", size)
        self.send_cq.push(comp)
        return comp

    def rdma_read(
        self,
        remote_addr: int,
        rkey: int,
        nbytes: int,
        wr_id: int = 0,
        trace: Any = None,
    ) -> Generator[Event, None, Completion]:
        """One-sided READ from the peer's memory.  Zero remote CPU.

        The completion's ``payload`` carries the bytes for backed regions.
        """
        return self._read(remote_addr, rkey, nbytes, wr_id, trace, True)

    def _read(self, remote_addr: int, rkey: int, nbytes: int, wr_id: int,
              trace: Any, complete: bool) -> Generator[Event, None, Any]:
        """The one READ implementation; a fabric channel takes the bytes
        without a completion (``complete=False``)."""
        remote = self._require_remote()
        mr = self._validate(remote, remote_addr, nbytes, AccessFlags.REMOTE_READ, rkey)
        # Request travels out (header only), data travels back (nbytes).
        if trace is None:
            yield self._post_eager()
        else:
            span = yield from self._post(trace, nbytes, 0, "rdma.dma")
        yield from self._route.cross(
            int(HEADER_BYTES / self.device.costs.goodput_efficiency))
        if trace is not None:
            span.finish()
            span = trace.child("rdma.dma", nbytes=nbytes)
        # The data is the READ's response: no rendezvous on the way back.
        costs = remote.device.costs
        route = remote._route
        sleep = route.sleep(self.env, costs.rtt_overhead / 2.0)
        if sleep is not None:
            yield sleep
        yield from route.cross(int((nbytes + HEADER_BYTES) / costs.goodput_efficiency))
        if trace is not None:
            span.finish()

        data = mr.read_bytes(remote_addr, nbytes)
        remote.device.sent.record(nbytes)
        self.device.received.record(nbytes)
        if not complete:
            return data
        comp = Completion(wr_id, "read", "ok", nbytes, data)
        self.send_cq.push(comp)
        return comp

    # -- timing ------------------------------------------------------------
    # Every verb starts the same way: the initiator posts on its CPU
    # (``tx_cpu_per_op``), then the wire's pure delays follow — the fixed
    # stack latency ``rtt_overhead/2``, for SENDs and WRITEs above the
    # rendezvous threshold the RTS/CTS round trip, and the switch
    # propagation — before :meth:`Route.cross` moves the bytes over the
    # sender's TX and the receiver's RX pipe.
    def _post_eager(self) -> Event:
        """Untraced eager post: the stack latency and the propagation ride
        the CPU reservation as one event at the chained-sleep instant."""
        costs = self.device.costs
        return self.device.node.cpu.execute(
            costs.tx_cpu_per_op, costs.rtt_overhead / 2.0, self._route.propagation)

    def _post(self, trace: Any, nbytes: int, size: int,
              stage: str) -> Generator[Event, None, Any]:
        """Post of a ``size``-byte crossing that keeps a sleep of its own.

        Untraced, that is a rendezvous: the stack latency and the RTS/CTS
        round trip ride the CPU reservation, and the propagation stays a
        sleep scheduled at the round trip's end.  (Folding it in as well
        would give its event a heap sequence number from before the round
        trip, so it would pop ahead of events scheduled during the round
        trip for the same instant.)  Traced, the post and each sleep stay
        separate events: ``rdma.post`` ends at the CPU completion,
        ``rdma.rendezvous`` measures the control round trip, and the rest
        falls in the ``stage`` span, which is returned open for the caller
        to finish once the bytes are over (None untraced).
        """
        device = self.device
        costs = device.costs
        cpu = device.node.cpu
        env = self.env
        pre = costs.rtt_overhead / 2.0
        rtt = 2 * (device.node.switch.spec.propagation + pre)
        if trace is None:
            yield cpu.execute(costs.tx_cpu_per_op, pre, rtt)
            sleep = self._route.sleep(env, 0.0)
            if sleep is not None:
                yield sleep
            return None
        src = device.node.name
        span = trace.child("rdma.post", node=src, nbytes=nbytes)
        yield cpu.execute(costs.tx_cpu_per_op)
        span.finish()
        if size > self._eager_max:
            yield env.timeout(pre)
            span = trace.child("rdma.rendezvous", node=src)
            yield env.timeout(rtt)
            span.finish()
            pre = 0.0
        span = trace.child(stage, nbytes=size)
        sleep = self._route.sleep(env, pre)
        if sleep is not None:
            yield sleep
        return span

    # -- internals ---------------------------------------------------------
    def _validate(
        self,
        remote: "QueuePair",
        addr: int,
        nbytes: int,
        needed: AccessFlags,
        rkey: int,
    ) -> MemoryRegion:
        """rkey / PD / bounds / flags / expiry enforcement at the target.

        This is the NIC-resident check the paper's security discussion
        (§2.3) centers on: possession of a *valid* rkey in the *target
        QP's PD* is necessary and sufficient — no CPU, no higher-level
        authentication.
        """
        if nbytes <= 0:
            raise ValueError(f"one-sided op size must be positive, got {nbytes}")
        mr = remote.pd.lookup(rkey)
        if mr is None:
            raise AccessViolation(
                f"rkey {rkey:#x} is not valid in the target QP's protection domain"
            )
        if mr.expired(self.env.now):
            raise AccessViolation(f"rkey {rkey:#x} has expired (scoped registration)")
        if not mr.contains(addr, nbytes):
            raise AccessViolation(
                f"access [{addr:#x}, +{nbytes}) outside MR [{mr.addr:#x}, +{mr.length})"
            )
        if not (mr.flags & needed):
            raise AccessViolation(f"MR lacks {needed.name} permission")
        return mr


class RdmaDevice:
    """The RDMA-capable NIC of one node."""

    def __init__(self, node: ComputeNode, costs: TransportCosts = RDMA_COSTS) -> None:
        self.node = node
        self.env: Environment = node.env
        self.costs = costs
        self.sent = RateMeter(self.env, f"{node.name}.rdma.tx")
        self.received = RateMeter(self.env, f"{node.name}.rdma.rx")

    def alloc_pd(self) -> ProtectionDomain:
        """Allocate a protection domain."""
        return ProtectionDomain(self)

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: Optional[CompletionQueue] = None,
        recv_cq: Optional[CompletionQueue] = None,
    ) -> QueuePair:
        """Create an RC queue pair in ``pd``."""
        return QueuePair(self, pd, send_cq, recv_cq)


def _payload_size(payload: Any) -> int:
    from repro.net.message import payload_nbytes

    return payload_nbytes(payload)
