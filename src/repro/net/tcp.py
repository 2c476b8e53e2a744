"""Kernel TCP transport model.

What the model charges for one message (all constants in
:data:`repro.hw.specs.TCP_COSTS`, scaled by each host's factors):

=================  =========================================================
sender             ``tx_cpu_per_op`` on a general core (syscall, skb setup)
                   plus ``tx_cpu_per_byte * size`` (copy into socket buffer)
sender, serial     ``stack_serial_per_op`` in the host-wide TCP stack
                   section (socket/qdisc locks, scaled by ``lock_factor``)
connection         ``per_conn_byte_cost * size`` through the connection's
                   own FIFO server — the classic single-stream ceiling
wire               ``rtt_overhead/2`` fixed stack latency and the switch
                   propagation (one event with the stream reservation),
                   then ``frame/goodput_efficiency`` bytes across the
                   sender's TX and the receiver's RX port
receiver, RX path  ``rx_cpu_per_byte * size`` on the *restricted RX core
                   set* (softirq + copy-to-user).  On BlueField-3 this pool
                   is 2 slow cores — the receive bottleneck of §4.4
receiver           ``rx_cpu_per_op`` on a general core (wakeup, syscall)
receiver, serial   ``stack_serial_per_op`` in the receiver's stack section
=================  =========================================================

The *functional* layer is a connection with in-order reliable delivery of
:class:`~repro.net.message.Message` objects into the receiver's inbox.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.hw.platform import ComputeNode
from repro.hw.specs import TCP_COSTS, TransportCosts
from repro.net.message import Message
from repro.sim.core import Environment, Event
from repro.sim.monitor import RateMeter
from repro.sim.queues import FifoServer
from repro.sim.resources import Listener, Mailbox, Store

__all__ = ["TcpConnection", "TcpStack"]


class TcpConnection:
    """One established, bidirectional TCP connection between two nodes."""

    _ids = 0

    def __init__(
        self,
        a: "TcpStack",
        b: "TcpStack",
    ) -> None:
        TcpConnection._ids += 1
        self.conn_id = TcpConnection._ids
        self._stacks: Dict[str, TcpStack] = {a.node.name: a, b.node.name: b}
        # Per-direction single-stream processing (per_conn_byte_cost).
        env = a.env
        # Wait-attribution names are shared across connections of the same
        # endpoint (one blame bucket per node-wide concept, not per conn).
        self._stream: Dict[str, FifoServer] = {
            a.node.name: FifoServer(env, name=f"{a.node.name}.tcp_stream"),
            b.node.name: FifoServer(env, name=f"{b.node.name}.tcp_stream"),
        }
        #: Per-endpoint inbox of delivered messages.
        self.inbox: Dict[str, Mailbox] = {
            a.node.name: Mailbox(env, name=f"{a.node.name}.tcp_inbox"),
            b.node.name: Mailbox(env, name=f"{b.node.name}.tcp_inbox"),
        }
        #: Separate inbox for provider-internal messages (kinds starting
        #: with "_"), so RMA emulation never races application receives.
        self.internal: Dict[str, Store] = {
            a.node.name: Store(env, name=f"{a.node.name}.tcp_internal"),
            b.node.name: Store(env, name=f"{b.node.name}.tcp_internal"),
        }
        self.closed = False
        #: Injected-reset window end: sends raise :class:`ConnectionError`
        #: while ``env.now < fail_until``.  The connection object (and its
        #: inboxes, with any parked receivers) survives the reset — only
        #: the stream is interrupted, as with a kernel RST + reconnect.
        self.fail_until = 0.0
        self._env = env
        #: Per-direction hot-path capsule: every object :meth:`send` needs
        #: for a ``src -> peer`` message, resolved once at connect time
        #: instead of through 10+ attribute/dict lookups per message.
        self._dir: Dict[str, tuple] = {}
        for name, stack in self._stacks.items():
            peer = self._stacks[self.peer_of(name)]
            snode, dnode = stack.node, peer.node
            self._dir[name] = (
                stack,                              # 0: source stack
                peer,                               # 1: destination stack
                stack.costs,                        # 2: transport costs
                snode.cpu,                          # 3: sender cores
                snode.lock("tcp_stack"),            # 4: sender stack section
                self._stream[name],                 # 5: per-conn stream
                snode.switch.route(name, dnode.name),  # 6: wire crossing
                dnode.name,                         # 7
                dnode.tcp_rx_cpu,                   # 8: restricted RX cores
                dnode.cpu,                          # 9: receiver cores
                dnode.lock("tcp_stack"),            # 10: receiver section
                "bluefield" in snode.spec.name,     # 11
                "bluefield" in dnode.spec.name,     # 12
            )

    def peer_of(self, name: str) -> str:
        """The other endpoint's node name."""
        for n in self._stacks:
            if n != name:
                return n
        raise KeyError(name)

    def send(self, msg: Message) -> Generator[Event, None, None]:
        """Send ``msg`` from ``msg.src``; completes when it is delivered.

        Use as ``yield from conn.send(msg)`` or wrap in ``env.process`` to
        pipeline multiple sends.
        """
        if self.closed:
            raise ConnectionError(f"connection {self.conn_id} is closed")
        if self.fail_until > self._env.now:
            raise ConnectionError(
                f"connection {self.conn_id} reset (injected fault)"
            )
        cap = self._dir.get(msg.src)
        if cap is None:
            raise KeyError(f"{msg.src!r} is not an endpoint of this connection")
        # Hot-path capsule resolved at connect time (see __init__) — this
        # generator runs once per wire message and is the single hottest
        # model function in every TCP experiment.
        (src, dst, costs, src_cpu, src_lock, stream, route, dst_name,
         rx_pool, dst_cpu, dst_lock, src_bf3, dst_bf3) = cap
        env = src.env
        size = msg.nbytes
        trace = msg.meta.get("trace") if msg.meta else None

        # --- sender ---------------------------------------------------
        span = trace.child("tcp.tx", node=msg.src, nbytes=size) if trace is not None else None
        yield src_cpu.execute(
            costs.tx_cpu_per_op + costs.tx_cpu_per_byte * size
        )
        if span is not None:
            span.finish()
        serial = costs.stack_serial_per_op
        if serial:
            # The host-wide serialized stack section.  On a BlueField this
            # section is the calibrated stand-in for the Arm kernel RX/stack
            # path of §4.4 (it is what caps DPU TCP at ~200 K IOPS, Fig. 5c
            # bottom), so the breakdown attributes it to ``arm_rx``
            # regardless of which direction's syscall stalled on it.
            span = None
            if trace is not None:
                span = trace.child("arm_rx" if src_bf3 else "tcp.stack",
                                   node=msg.src)
            yield src_lock.enter(serial)
            if span is not None:
                span.finish()
        # Single-stream per-connection processing (sequential per direction).
        # The wire's pure delays follow it: the fixed stack latency (rtt/2)
        # and the switch propagation.  Untraced, they ride its reservation
        # as one event at the chained-sleep instant; a traced message keeps
        # them apart, so ``tcp.stream`` ends at the stream's completion and
        # the sleep falls in the ``net.wire`` span.
        stream_cost = costs.per_conn_byte_cost * size
        pre = costs.rtt_overhead / 2.0
        if trace is None and stream_cost:
            yield stream.serve(stream_cost, pre, route.propagation)
            span = None
        else:
            if stream_cost:
                span = trace.child("tcp.stream", node=msg.src, nbytes=size)
                yield stream.serve(stream_cost)
                span.finish()
            span = trace.child("net.wire", nbytes=size) if trace is not None else None
            sleep = route.sleep(env, pre)
            if sleep is not None:
                yield sleep

        # --- wire ------------------------------------------------------
        yield from route.cross(int(msg.frame_bytes / costs.goodput_efficiency))
        if span is not None:
            span.finish()

        # --- receiver ---------------------------------------------------
        if costs.rx_cpu_per_byte and size:
            # Per-byte RX work runs on the restricted RX core set; the
            # pool's own factor already includes the platform RX penalty.
            # On a BlueField this is the Arm RX path of the paper's §4.4.
            if trace is not None:
                span = trace.child("arm_rx" if dst_bf3 else "host_rx",
                                   node=dst_name, nbytes=size)
            yield rx_pool.execute(costs.rx_cpu_per_byte * size)
            if trace is not None:
                span.finish()
        span = trace.child("tcp.rx", node=dst_name, nbytes=size) if trace is not None else None
        yield dst_cpu.execute(costs.rx_cpu_per_op)
        if span is not None:
            span.finish()
        if serial:
            span = None
            if trace is not None:
                span = trace.child("arm_rx" if dst_bf3 else "tcp.stack",
                                   node=dst_name)
            yield dst_lock.enter(serial)
            if span is not None:
                span.finish()

        src.sent.record(size)
        dst.received.record(size)
        box = self.internal if msg.kind.startswith("_") else self.inbox
        box[dst_name].put_nowait(msg)

    def recv(self, name: str):
        """Event yielding the next message delivered to endpoint ``name``."""
        return self.inbox[name].get()

    def listen(self, name: str, fn) -> Listener:
        """Hand every message delivered to ``name`` to ``fn(msg)``."""
        return self.inbox[name].listen(fn)

    def take_internal(self, name: str) -> Message:
        """Consume the provider-internal message :meth:`send` just delivered.

        The RMA emulation's progress engine handles it on arrival, so no
        receiver ever parks on the internal inbox.
        """
        return self.internal[name].get_nowait()

    def reset(self, duration: float) -> None:
        """Injected reset: sends fail for ``duration`` sim-seconds."""
        until = self._env.now + duration
        if until > self.fail_until:
            self.fail_until = until

    def close(self) -> None:
        """Mark the connection closed; further sends raise."""
        self.closed = True


class TcpStack:
    """The per-node TCP stack: connection setup plus cost bookkeeping."""

    def __init__(
        self,
        node: ComputeNode,
        costs: TransportCosts = TCP_COSTS,
    ) -> None:
        self.node = node
        self.env: Environment = node.env
        self.costs = costs
        self.sent = RateMeter(self.env, f"{node.name}.tcp.tx")
        self.received = RateMeter(self.env, f"{node.name}.tcp.rx")
        self.connections: list = []

    def connect(self, remote: "TcpStack") -> TcpConnection:
        """Open a connection to ``remote`` (handshake cost is negligible
        next to the paper's multi-second measurement windows)."""
        conn = TcpConnection(self, remote)
        self.connections.append(conn)
        remote.connections.append(conn)
        return conn
