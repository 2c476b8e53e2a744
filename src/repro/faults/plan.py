"""Fault plans, the injector, and its telemetry counters.

A :class:`FaultPlan` is data: a sorted schedule of :class:`FaultEvent`
entries plus the :class:`~repro.faults.retry.RetryPolicy` the client
should recover with.  ``plan.install(env)`` attaches a
:class:`FaultInjector` to the environment's ``_faults`` hook slot;
components self-register at construction time (channels, engines,
nodes) when the slot is non-``None`` and otherwise pay a single ``is
not None`` test — the same zero-cost-when-off contract the wait tracer
and trace hooks follow.

Fault *times* are relative to the workload's measured-window start:
the harness calls :meth:`FaultInjector.arm` with the absolute base
time once setup is done, which freezes every fault window and spawns
one driver process that fires the events in schedule order.

Targets reuse the WaitTracer resource naming scheme:

========================  =============================================
kind                      target
========================  =============================================
``qp_break``              ``{node}.qp``        (e.g. ``dpu.qp``)
``tcp_reset``             ``{node}.tcp``       (e.g. ``host.tcp``)
``nvme_media_error``      ``nvme.ssd{i}``
``nvme_latency_spike``    ``nvme.ssd{i}``
``engine_crash``          ``engine.target{i}``
``arm_stall``             ``{node}.{lock}``    (e.g. ``dpu.daos_progress``)
========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.faults.retry import RetryPolicy
from repro.sim.rng import seed_from_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment, Event

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "parse_fault_spec",
]

#: The supported fault taxonomy (DESIGN.md §14).
FAULT_KINDS = (
    "qp_break",
    "tcp_reset",
    "nvme_media_error",
    "nvme_latency_spike",
    "engine_crash",
    "arm_stall",
)

#: Kinds whose effect is *pulled* (a window check at the injection
#: point) rather than *pushed* (an applier mutating component state).
_PULL_KINDS = frozenset({"nvme_media_error", "nvme_latency_spike"})


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is seconds after the measured window opens; ``duration`` is
    the fault window length (0 = instantaneous, e.g. a QP break whose
    reconnect is allowed immediately); ``factor`` scales service time
    for ``nvme_latency_spike`` and is ignored by other kinds.
    """

    kind: str
    target: str
    at: float
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")
        if self.factor <= 0:
            raise ValueError(f"fault factor must be > 0, got {self.factor}")

    def to_dict(self) -> dict:
        """Canonical dict form (stable key order for config hashing)."""
        return {
            "kind": self.kind,
            "target": self.target,
            "at": self.at,
            "duration": self.duration,
            "factor": self.factor,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultEvent":
        return cls(
            kind=doc["kind"],
            target=doc["target"],
            at=float(doc["at"]),
            duration=float(doc.get("duration", 0.0)),
            factor=float(doc.get("factor", 1.0)),
        )


class FaultStats:
    """Recovery/injection counters, surfaced in ``SystemReport``."""

    __slots__ = (
        "injected",
        "retries",
        "reconnects",
        "timeouts",
        "replies_dropped",
        "submitted",
        "completed",
        "failed",
        "degraded_reads",
        "fault_downtime",
    )

    def __init__(self) -> None:
        #: Fired fault events, by kind.
        self.injected: Dict[str, int] = {}
        #: Client-side retry attempts after a retryable failure.
        self.retries = 0
        #: Successful QP/TCP reconnects.
        self.reconnects = 0
        #: Per-op deadline expiries.
        self.timeouts = 0
        #: RPC replies the server dropped because the transport was down.
        self.replies_dropped = 0
        #: Workload operations submitted / completed / failed-with-error
        #: (conservation: submitted == completed + failed after drain).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        #: Fetches served from a non-primary replica or an EC rebuild
        #: (copied from the engine after the drain by the chaos runner).
        self.degraded_reads = 0
        #: Union of fault windows in seconds (set when the plan is armed).
        self.fault_downtime = 0.0

    def count_injected(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def to_dict(self) -> dict:
        return {
            "injected": dict(sorted(self.injected.items())),
            "retries": self.retries,
            "reconnects": self.reconnects,
            "timeouts": self.timeouts,
            "replies_dropped": self.replies_dropped,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "degraded_reads": self.degraded_reads,
            "fault_downtime": self.fault_downtime,
        }


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """An immutable fault schedule plus the recovery policy to use."""

    events: Tuple[FaultEvent, ...] = ()
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Seed key for the plan's deterministic jitter streams
    #: (:func:`~repro.sim.rng.seed_from_key` domain).
    seed_key: str = "chaos"

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events,
                               key=lambda e: (e.at, e.kind, e.target)))
        object.__setattr__(self, "events", ordered)

    @property
    def seed(self) -> int:
        """Stable 32-bit seed derived from ``seed_key``."""
        return seed_from_key(self.seed_key)

    def to_config(self) -> dict:
        """Canonical config fragment (campaign ``faults:`` cell key)."""
        return {
            "events": [e.to_dict() for e in self.events],
            "policy": self.policy.to_dict(),
            "seed_key": self.seed_key,
        }

    @classmethod
    def from_config(cls, doc: dict) -> "FaultPlan":
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in doc.get("events", ())),
            policy=RetryPolicy.from_dict(doc["policy"]) if "policy" in doc
            else RetryPolicy(),
            seed_key=doc.get("seed_key", "chaos"),
        )

    def install(self, env: "Environment") -> "FaultInjector":
        """Attach an injector to ``env`` (at most one at a time)."""
        if env._faults is not None:
            raise RuntimeError("a FaultInjector is already installed")
        fx = FaultInjector(env, self)
        env._faults = fx
        return fx


class FaultInjector:
    """Runtime half of a :class:`FaultPlan`: registry, windows, driver.

    Components register themselves during construction (guarded by the
    ``env._faults is not None`` test); the harness calls :meth:`arm`
    once the measured window's start time is known.  Pull-style kinds
    (NVMe) are window queries via :meth:`active`; push-style kinds are
    applied by the driver process at their trigger times.
    """

    __slots__ = ("env", "plan", "stats", "_channels", "_engines", "_nodes",
                 "_windows", "_armed_at")

    def __init__(self, env: "Environment", plan: FaultPlan) -> None:
        self.env = env
        self.plan = plan
        self.stats = FaultStats()
        #: Transport channels by fault target name (``{node}.qp`` /
        #: ``{node}.tcp``); several sessions may share a target.
        self._channels: Dict[str, List[object]] = {}
        self._engines: List[object] = []
        self._nodes: Dict[str, object] = {}
        #: ``(kind, target) -> [(start, end, event), ...]`` absolute
        #: windows, frozen by :meth:`arm`.
        self._windows: Dict[Tuple[str, str], List[Tuple[float, float, FaultEvent]]] = {}
        self._armed_at: Optional[float] = None

    # -- component registry (called from __init__ when hooks are on) -----------
    def register_channel(self, target: str, channel: object) -> None:
        """A transport channel answering to fault target ``target``."""
        self._channels.setdefault(target, []).append(channel)

    def register_engine(self, engine: object) -> None:
        self._engines.append(engine)

    def register_node(self, node: object) -> None:
        self._nodes[getattr(node, "name")] = node

    # -- schedule ---------------------------------------------------------------
    @property
    def armed_at(self) -> Optional[float]:
        """Absolute base time the plan was armed at, or None."""
        return self._armed_at

    def arm(self, base: float) -> None:
        """Freeze fault windows relative to ``base`` and start the driver."""
        if self._armed_at is not None:
            raise RuntimeError("fault plan already armed")
        self._armed_at = base
        spans = []
        for ev in self.plan.events:
            start = base + ev.at
            self._windows.setdefault((ev.kind, ev.target), []).append(
                (start, start + ev.duration, ev)
            )
            if ev.duration > 0:
                spans.append((start, start + ev.duration))
        self.stats.fault_downtime = _union_length(spans)
        if self.plan.events:
            self.env.process(self._driver(base), name="faults.driver")

    def _driver(self, base: float) -> Generator["Event", None, None]:
        for ev in self.plan.events:
            when = base + ev.at
            if when > self.env.now:
                yield self.env.timeout_until(when)
            self._apply(ev)

    # -- queries (pull-style injection points) ---------------------------------
    def active(self, kind: str, target: str) -> Optional[FaultEvent]:
        """The fault event whose window covers ``now``, if any."""
        windows = self._windows.get((kind, target))
        if not windows:
            return None
        now = self.env.now
        for start, end, ev in windows:
            if start <= now < end:
                return ev
        return None

    def fault_resource(self) -> str:
        """Best-effort resource name to blame a recovery wait on.

        The target of the fault window covering ``now``, else the most
        recently triggered fault, else the plan's first target.
        """
        now = self.env.now
        best: Optional[FaultEvent] = None
        best_start = -1.0
        for windows in self._windows.values():
            for start, end, ev in windows:
                if start <= now < end:
                    return ev.target
                if start <= now and start > best_start:
                    best, best_start = ev, start
        if best is not None:
            return best.target
        return self.plan.events[0].target if self.plan.events else "injected"

    # -- push-style appliers ----------------------------------------------------
    def _apply(self, ev: FaultEvent) -> None:
        self.stats.count_injected(ev.kind)
        if ev.kind in _PULL_KINDS:
            return  # effect is a window query at the device
        if ev.kind == "qp_break":
            for ch in self._channels.get(ev.target, ()):
                ch.break_qps(f"injected qp_break on {ev.target}")  # type: ignore[attr-defined]
        elif ev.kind == "tcp_reset":
            for ch in self._channels.get(ev.target, ()):
                ch.reset(ev.duration)  # type: ignore[attr-defined]
        elif ev.kind == "engine_crash":
            self._apply_engine_crash(ev)
        elif ev.kind == "arm_stall":
            self._apply_arm_stall(ev)

    def _apply_engine_crash(self, ev: FaultEvent) -> None:
        index = int(ev.target.rsplit("target", 1)[1])
        for engine in self._engines:
            engine.fail_target(index)  # type: ignore[attr-defined]
            if ev.duration > 0:
                self.env.process(self._restart_target(engine, index, ev.duration),
                                 name=f"faults.restart.{ev.target}")

    def _restart_target(self, engine: object, index: int,
                        duration: float) -> Generator["Event", None, None]:
        yield self.env.timeout(duration)
        yield from engine.rebuild_target(index)  # type: ignore[attr-defined]

    def _apply_arm_stall(self, ev: FaultEvent) -> None:
        node_name, _, lock_name = ev.target.partition(".")
        node = self._nodes.get(node_name)
        if node is None or not lock_name:
            raise ValueError(f"arm_stall target {ev.target!r} matches no "
                             f"registered node lock")
        self.env.process(self._stall(node, lock_name, ev.duration),
                         name=f"faults.stall.{ev.target}")

    def _stall(self, node: object, lock_name: str,
               duration: float) -> Generator["Event", None, None]:
        # ``hold`` occupies the section for exactly ``duration``
        # (``enter()`` would scale by the node's lock factor).
        section = node.lock(lock_name)  # type: ignore[attr-defined]
        yield section.hold(duration)


def _union_length(spans: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    if not spans:
        return 0.0
    spans = sorted(spans)
    total = 0.0
    cur_start, cur_end = spans[0]
    for start, end in spans[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + (cur_end - cur_start)


def parse_fault_spec(spec: str) -> FaultEvent:
    """Parse a CLI fault spec: ``KIND:TARGET:AT[:DURATION[:FACTOR]]``.

    Examples: ``qp_break:dpu.qp:0.01:0.005``,
    ``nvme_latency_spike:nvme.ssd0:0.0:0.01:8``.
    """
    parts = spec.split(":")
    if not 3 <= len(parts) <= 5:
        raise ValueError(
            f"bad fault spec {spec!r}; expected KIND:TARGET:AT[:DURATION[:FACTOR]]"
        )
    kind, target, at = parts[0], parts[1], float(parts[2])
    duration = float(parts[3]) if len(parts) > 3 else 0.0
    factor = float(parts[4]) if len(parts) > 4 else 1.0
    return FaultEvent(kind=kind, target=target, at=at,
                      duration=duration, factor=factor)
