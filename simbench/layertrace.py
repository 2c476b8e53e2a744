"""Layer tracing from outside the model: wrap each layer's public calls.

:class:`LayerTracer` patches the public functions named in :data:`TARGETS`
(and every process generator started through ``Environment.process``) with
wrappers that record one :class:`Span` per call.  A span carries its name
and layer, host start and end, sim start and end, its parent span and the
IO id of the data-port call it serves.

Generators are the unit of work in this simulator, and one call's host time
is spread over many resumptions.  The wrapper therefore times every
resumption as a frame on a host stack: a frame's self time is its duration
minus the part its child frames cover, and a layer's self time is the sum
over its frames.  Time that no frame covers is the kernel's own dispatch.

Only frames that run while recording (the FIO drive) are counted; spans
stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from time import perf_counter_ns
from types import GeneratorType
from typing import Dict, Iterator, List, Optional, Tuple

#: ``(layer, "module" or "module:Class", attributes)``.  A class entry with
#: no attributes wraps every public method the class itself defines.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("workload", "repro.bench.runner", ("run_fio",)),
    ("core", "repro.core.offload:Ros2DataPort", ("read", "write")),
    ("daos.client", "repro.daos.client:ObjectHandle", ("fetch", "update")),
    ("daos.client", "repro.daos.rpc:RpcClient", ("call",)),
    ("daos.vos", "repro.daos.vos:VersionedObjectStore", ("fetch", "update")),
    ("net", "repro.net.fabric:FabricChannel+", ("send", "rma_read", "rma_write")),
    ("hw.nvme", "repro.hw.nvme:NvmeArray", ("submit",)),
    ("hw.cpu", "repro.hw.cpu:CpuPool", ("execute",)),
    ("hw.cpu", "repro.hw.cpu:SerializedSection", ("enter",)),
    # Fig. 5 traffic crosses the switch; DuplexLink is the point-to-point
    # link other testbeds use.
    ("hw.nic", "repro.hw.nic:Switch", ("transmit",)),
    ("hw.nic", "repro.hw.nic:DuplexLink", ("transfer",)),
    ("sim.queues.pipe", "repro.sim.queues:BandwidthPipe", ("transfer",)),
    ("sim.queues.serve", "repro.sim.queues:FifoServer",
     ("serve", "serve_then", "serve_units")),
    ("sim.queues.serve", "repro.sim.queues:PooledServer", ("execute",)),
    ("sim", "repro.sim.core:Environment", ("run",)),
    ("faults", "repro.faults.plan:FaultInjector", ()),
    # The retry helpers as the DAOS client imported them.
    ("faults", "repro.daos.client",
     ("backoff_delay", "is_retryable", "remaining_budget")),
    ("instruments", "repro.sim.waits:WaitTracer", ()),
    ("instruments", "repro.sim.spans:SpanCollector", ()),
    ("instruments", "repro.sim.spans:Span", ()),
    ("instruments", "repro.sim.spans:Trace", ()),
)

#: Layer of the data-port calls: each one is an IO and starts an IO id.
IO_LAYER = "core"


class Span:
    """One wrapped call (or one started process)."""

    __slots__ = ("sid", "name", "layer", "parent", "io", "host_start",
                 "host_end", "host_active", "host_self", "sim_start", "sim_end")

    def __init__(self, sid: int, name: str, layer: str, parent: Optional["Span"],
                 io: int, sim_start: float) -> None:
        self.sid = sid
        self.name = name
        self.layer = layer
        self.parent = -1 if parent is None else parent.sid
        self.io = io
        self.host_start = 0
        self.host_end = 0
        #: Host ns spent in this call's frames, children included / excluded.
        self.host_active = 0
        self.host_self = 0
        self.sim_start = sim_start
        self.sim_end: Optional[float] = None


def _owners(path: str) -> List[object]:
    """Resolve ``module``, ``module:Class`` or ``module:Class+`` (the
    class's subclasses, recursively) to the objects to patch."""
    module_name, _, cls_name = path.partition(":")
    module = importlib.import_module(module_name)
    if not cls_name:
        return [module]
    if cls_name.endswith("+"):
        base = getattr(module, cls_name[:-1])
        found, todo = [], list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        return found
    return [getattr(module, cls_name)]


def _public_methods(cls: type) -> Tuple[str, ...]:
    return tuple(name for name, value in vars(cls).items()
                 if not name.startswith("_") and inspect.isfunction(value))


class LayerTracer:
    """Wraps the layers' public calls while installed; see module docs."""

    def __init__(self) -> None:
        self.env = None
        self.recording = False
        self.spans: List[Span] = []
        #: Host ns of self time per layer, counted while recording.
        self.layer_self: Dict[str, int] = {}
        #: Host ns covered by bottom-of-stack frames while recording.
        self.covered_ns = 0
        self.window_ns = 0
        #: Simulated time at which the recording window closed.
        self.window_sim_end = 0.0
        self._t_window = 0
        self._stack: List[list] = []
        self._next_sid = 0
        self._next_io = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._timed_code = LayerTracer._timed.__code__

    # -- patching ----------------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, path, attrs in TARGETS:
            for owner in _owners(path):
                names = attrs
                if not names:
                    names = _public_methods(owner)
                for attr in names:
                    if isinstance(owner, type) and attr not in vars(owner):
                        continue  # inherited: wrapped on the defining class
                    fn = getattr(owner, attr)
                    self._patch(owner, attr,
                                self._wrap(fn, f"{owner.__name__}.{attr}", layer))
        from repro.sim.core import Environment
        self._patch(Environment, "process", self._wrap_process(Environment.process))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def on_drive(self, env, starting: bool) -> None:
        """Open or close the recording window (the FIO drive of ``env``)."""
        self.env = env
        if self._stack:
            raise RuntimeError("layer trace: frames open at a drive boundary")
        now = perf_counter_ns()
        if starting:
            self.recording = True
            self._t_window = now
        else:
            self.recording = False
            self.window_ns += now - self._t_window
            self.window_sim_end = env.now

    # -- frames ------------------------------------------------------------

    def _sim_now(self) -> float:
        # Calls made while a testbed is built may come before its first
        # process binds the environment; their spans are not recorded.
        return self.env.now if self.env is not None else 0.0

    def _new_span(self, name: str, layer: str) -> Span:
        stack = self._stack
        parent = stack[-1][0] if stack else None
        if layer == IO_LAYER:
            self._next_io += 1
            io = self._next_io
        else:
            io = parent.io if parent is not None else -1
        self._next_sid += 1
        span = Span(self._next_sid, name, layer, parent, io, self._sim_now())
        if self.recording:
            self.spans.append(span)
        return span

    def _close_frame(self, entry: list, now: int) -> None:
        span, t0, child = entry
        stack = self._stack
        stack.pop()
        d = now - t0
        span.host_active += d
        span.host_self += d - child
        span.host_end = now
        if stack:
            stack[-1][2] += d
        elif self.recording:
            self.covered_ns += d
        if self.recording:
            layer = span.layer
            self.layer_self[layer] = self.layer_self.get(layer, 0) + d - child

    def _timed(self, gen: Iterator, span: Span):
        """Drive ``gen``, charging each resumption to ``span``."""
        stack = self._stack
        value = None
        exc: Optional[BaseException] = None
        while True:
            entry = [span, perf_counter_ns(), 0]
            if not span.host_start:
                span.host_start = entry[1]
            stack.append(entry)
            try:
                y = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close_frame(entry, perf_counter_ns())
                span.sim_end = self._sim_now()
                return stop.value
            except BaseException:
                self._close_frame(entry, perf_counter_ns())
                span.sim_end = self._sim_now()
                raise
            self._close_frame(entry, perf_counter_ns())
            try:
                value = yield y
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # noqa: BLE001 - forwarded into gen
                value, exc = None, e

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._new_span(name, layer)
            entry = [span, perf_counter_ns(), 0]
            span.host_start = entry[1]
            tracer._stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close_frame(entry, perf_counter_ns())
                span.sim_end = tracer._sim_now()
                raise
            tracer._close_frame(entry, perf_counter_ns())
            if type(result) is GeneratorType:
                return tracer._timed(result, span)
            # A returned Timeout fires after its delay; anything else is done.
            span.sim_end = span.sim_start + getattr(result, "delay", 0.0)
            return result

        return wrapper

    def _wrap_process(self, process):
        tracer = self

        @functools.wraps(process)
        def wrapper(env, generator, name=None):
            tracer.env = env
            if (type(generator) is GeneratorType and generator.gi_frame is not None
                    and generator.gi_code is not tracer._timed_code):
                module = generator.gi_frame.f_globals.get("__name__", "")
                short = module.removeprefix("repro.")
                layer = "workload" if short.startswith("workload") else f"proc:{short}"
                span = tracer._new_span(f"proc:{generator.__qualname__}", layer)
                name = name or generator.__name__
                generator = tracer._timed(generator, span)
            return process(env, generator, name)

        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("sid\tparent\tio\tlayer\tname\thost_start_ns\thost_end_ns"
                      "\thost_active_ns\thost_self_ns\tsim_start_s\tsim_end_s\n")
            for s in self.spans:
                out.write(f"{s.sid}\t{s.parent}\t{s.io}\t{s.layer}\t{s.name}\t"
                          f"{s.host_start}\t{s.host_end}\t{s.host_active}\t"
                          f"{s.host_self}\t{s.sim_start!r}\t{s.sim_end!r}\n")
