"""CaRT/Mercury-like RPC framework over fabric channels.

DAOS's RPC stack (CaRT over Mercury, §3.3) provides tagged
request/response messaging with bulk-transfer descriptors riding in the
request.  This module reproduces that shape:

* :class:`RpcServer` — registers generator handlers per opcode, services
  one or more channels, replies with results or propagated errors.
* :class:`RpcClient` — tagged calls with a completion demultiplexer.

Both receive through channel listeners rather than parked receive loops:
a request starts its handler process inline at the delivery event, and a
reply wakes its caller from there (DESIGN.md §9).

Handlers receive ``(args, src, channel)`` so they can drive one-sided bulk
transfers against descriptors the client put in ``args`` — exactly how a
DAOS engine pulls write payloads and pushes read payloads.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Generator, Optional

from repro.daos.types import DaosError
from repro.faults.errors import FaultInjectedError
from repro.hw.platform import ComputeNode
from repro.net.fabric import FabricChannel
from repro.net.message import Message
from repro.net.rdma import RdmaError
from repro.sim.core import Environment, Event
from repro.sim.resources import Listener

__all__ = ["RpcError", "RpcTimeout", "RpcServer", "RpcClient", "RPC_REQUEST_BYTES"]

#: Wire size of a request/response capsule (opcode, ids, keys, descriptor).
RPC_REQUEST_BYTES = 220
RPC_REPLY_BYTES = 96


class RpcError(DaosError):
    """An RPC failed on the server; carries the remote error text.

    ``remote_error`` is the raw server-side message; ``op``, ``target``
    and ``sim_time`` locate the failure so chaos reports and the retry
    classifier can act on it without string-parsing the whole message.
    """

    def __init__(
        self,
        remote_error: str,
        op: Optional[str] = None,
        target: Optional[str] = None,
        sim_time: Optional[float] = None,
    ) -> None:
        self.remote_error = remote_error
        self.op = op
        self.target = target
        self.sim_time = sim_time
        message = remote_error
        if op is not None or target is not None:
            context = " ".join(
                part for part in (
                    f"op={op}" if op is not None else None,
                    f"target={target}" if target is not None else None,
                    f"t={sim_time:.6f}" if sim_time is not None else None,
                ) if part is not None
            )
            message = f"{remote_error} [{context}]"
        super().__init__(message)


class RpcTimeout(RpcError):
    """A call's per-attempt deadline expired before the reply arrived.

    Ambiguous by nature — the server may or may not have executed the
    op — so only idempotent operations may retry after one.
    """


class RpcServer:
    """Opcode-dispatching RPC service for one node."""

    def __init__(self, node: ComputeNode) -> None:
        self.node = node
        self.env: Environment = node.env
        self._handlers: Dict[str, Callable] = {}
        self._loops: list = []
        self.requests_served = 0
        #: In-flight request count (dispatched, reply not yet sent).
        self.inflight = 0
        #: Optional telemetry station (attached only while sampling).
        self.stats = None

    def attach_stats(self, stats) -> None:
        """Attach a :class:`~repro.sim.timeseries.StationStats` recorder.

        Every dispatched request then reports arrival and sojourn
        (dispatch to reply-sent), powering the in-flight-RPC counter track
        and the Little's-law self-check on the RPC station.
        """
        self.stats = stats

    def register(self, opcode: str, handler: Callable) -> None:
        """Register ``handler(args, src, channel) -> generator`` for ``opcode``."""
        if opcode in self._handlers:
            raise ValueError(f"duplicate RPC opcode {opcode!r}")
        self._handlers[opcode] = handler

    def opcodes(self) -> list:
        """Registered opcode names."""
        return sorted(self._handlers)

    def serve(self, channel: FabricChannel) -> Listener:
        """Start servicing requests arriving on ``channel``."""
        start = self.env.process_inline
        dispatch = self._dispatch

        def on_message(msg: Message) -> None:
            kind = msg.kind
            if kind == "rpc.req":
                start(dispatch(channel, msg), "rpc-handler")
            elif kind == "rpc.shutdown":
                listener.close()
            # Anything else is stray; CaRT drops unknown traffic.

        listener = channel.listen(self.node.name, on_message)
        self._loops.append(listener)
        return listener

    def _dispatch(self, channel: FabricChannel, msg: Message):
        # One generator frame per request: the accounting wrapper and the
        # handler body used to be separate generators, which added a
        # delegation frame to every resumption of every handler.
        self.inflight += 1
        st = self.stats
        if st is not None:
            st.arrive()
        t0 = self.env.now
        try:
            opcode = msg.payload.get("op")
            args = msg.payload.get("args", {})
            handler = self._handlers.get(opcode)
            if handler is None:
                yield from self._send_reply(channel, msg.reply_to(
                    kind="rpc.rep",
                    payload={"status": "error",
                             "error": f"unknown opcode {opcode!r}"},
                    nbytes=RPC_REPLY_BYTES,
                ))
                return
            # Extract trace context from the capsule (CaRT carries
            # hlc/trace metadata the same way); hand the handler a
            # server-side span.
            trace = msg.meta.get("trace") if msg.meta else None
            span = None
            if trace is not None:
                span = trace.child(f"rpc.handler[{opcode}]", node=self.node.name)
                args = dict(args)
                args["_trace"] = span
            try:
                result = yield from handler(args, msg.src, channel)
            except (DaosError, FaultInjectedError, RdmaError, ConnectionError) as exc:
                # DaosError is the normal application-error path; the
                # other three surface mid-handler when a fault window
                # breaks the transport or the device under it — the
                # handler must not die, or the engine stops serving.
                if span is not None:
                    span.finish()
                yield from self._send_reply(channel, msg.reply_to(
                    kind="rpc.rep",
                    payload={"status": "error",
                             "error": f"{type(exc).__name__}: {exc}"},
                    nbytes=RPC_REPLY_BYTES,
                ))
                return
            if span is not None:
                span.finish()
            # Handlers that piggyback payload bytes onto the reply (inline
            # fetches) declare the extra wire size via the "_wire" key.
            wire_extra = 0
            if isinstance(result, dict):
                wire_extra = int(result.pop("_wire", 0))
            self.requests_served += 1
            yield from self._send_reply(channel, msg.reply_to(
                kind="rpc.rep",
                payload={"status": "ok", "result": result},
                nbytes=RPC_REPLY_BYTES + wire_extra,
            ))
        finally:
            self.inflight -= 1
            if st is not None:
                st.depart(self.env.now - t0)

    def _send_reply(self, channel: FabricChannel, reply: Message):
        """Send a reply; under fault injection a dead transport drops it.

        The client's deadline/retry machinery recovers the op — exactly
        what happens when a real server's reply hits a broken QP.
        Without an installed fault plan transport failures are genuine
        bugs and propagate.
        """
        try:
            yield from channel.send(reply)
        except (RdmaError, ConnectionError):
            fx = self.env._faults
            if fx is None:
                raise
            fx.stats.replies_dropped += 1


class RpcClient:
    """Tagged RPC calls over one channel, with a reply demultiplexer."""

    _tags = itertools.count(1)

    def __init__(self, node: ComputeNode, channel: FabricChannel) -> None:
        self.node = node
        self.env: Environment = node.env
        self.channel = channel
        self.server_name = channel.peer_of(node.name)
        self._pending: Dict[int, Event] = {}
        self._demux: Optional[Listener] = None

    def start(self) -> "RpcClient":
        """Attach the reply demultiplexer; call once before any call."""
        if self._demux is None:
            self._demux = self.channel.listen(self.node.name, self._on_reply)
        return self

    def _on_reply(self, msg: Message) -> None:
        waiter = self._pending.pop(msg.tag, None)
        if waiter is not None:
            waiter.succeed(msg)

    def call(
        self,
        opcode: str,
        args: Dict[str, Any],
        req_nbytes: int = RPC_REQUEST_BYTES,
        trace: Any = None,
        deadline: Optional[float] = None,
    ) -> Generator[Event, None, Any]:
        """Issue one RPC; returns the handler result or raises RpcError.

        ``trace`` (a parent :class:`~repro.sim.spans.Span`) rides in the
        request capsule's metadata — the analog of CaRT's hlc/trace fields
        — so the server and both transport legs can attach child spans.
        ``deadline`` bounds the wait for the reply; on expiry the call
        raises :class:`RpcTimeout` and a late reply is dropped by the
        demux (its tag is no longer pending).
        """
        if self._demux is None:
            raise RuntimeError("RpcClient not started; call start() first")
        tag = next(RpcClient._tags)
        done = self.env.event()
        self._pending[tag] = done
        span = trace.child(f"rpc[{opcode}]", node=self.node.name) if trace is not None else None
        try:
            yield from self.channel.send(Message(
                src=self.node.name,
                dst=self.server_name,
                kind="rpc.req",
                tag=tag,
                payload={"op": opcode, "args": args},
                nbytes=req_nbytes,
                meta={"trace": span} if span is not None else {},
            ))
        except BaseException:
            # The request never reached the server; forget the tag so the
            # pending map cannot leak across retries.
            self._pending.pop(tag, None)
            if span is not None:
                span.finish()
            raise
        if deadline is None:
            reply = yield done
        else:
            fired = yield self.env.any_of((done, self.env.timeout(deadline)))
            if done not in fired:
                self._pending.pop(tag, None)
                if span is not None:
                    span.finish()
                fx = self.env._faults
                if fx is not None:
                    fx.stats.timeouts += 1
                raise RpcTimeout(
                    f"no reply within {deadline:g}s",
                    op=opcode, target=self.server_name, sim_time=self.env.now,
                )
            reply = fired[done]
        if span is not None:
            span.finish()
        body = reply.payload
        if body["status"] != "ok":
            raise RpcError(
                body.get("error", "remote failure"),
                op=opcode, target=self.server_name, sim_time=self.env.now,
            )
        return body.get("result")

    def shutdown_server(self) -> Generator[Event, None, None]:
        """Stop the server loop on this channel."""
        yield from self.channel.send(Message(
            src=self.node.name, dst=self.server_name, kind="rpc.shutdown", nbytes=16
        ))
