"""CPU core pools and serialized sections.

Two costs dominate the paper's results: per-operation CPU work that
parallelizes across cores, and work inside serialized sections (socket
locks, a single RPC progress context) that does not.  :class:`CpuPool`
models the former as a multi-server FIFO station; :class:`SerializedSection`
models the latter as a single FIFO server.

All costs passed in are **x86-baseline** seconds; the pool scales them by
the owning host's ``cycle_factor`` (and sections by ``lock_factor``), which
is how the BlueField-3's slower Arm cores enter every result without any
caller knowing which platform it runs on.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.specs import HostSpec
from repro.sim.core import Environment, Timeout
from repro.sim.queues import FifoServer, PooledServer

__all__ = ["CpuPool", "SerializedSection"]


class CpuPool:
    """A pool of identical cores with an architecture speed factor."""

    __slots__ = ("env", "spec", "n_cores", "factor", "_pool")

    def __init__(
        self,
        env: Environment,
        spec: HostSpec,
        n_cores: Optional[int] = None,
        factor: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.n_cores = int(n_cores if n_cores is not None else spec.cores)
        if self.n_cores <= 0:
            raise ValueError(f"need at least one core, got {self.n_cores}")
        #: Multiplier applied to every x86-baseline cost.
        self.factor = float(factor if factor is not None else spec.cycle_factor)
        self._pool = PooledServer(env, self.n_cores, name=name)

    @property
    def name(self) -> Optional[str]:
        """Resource name for wait-cause attribution."""
        return self._pool.name

    def execute(self, x86_cost: float, *delays: float) -> Timeout:
        """Run ``x86_cost`` seconds of baseline work on the earliest-free core.

        Trailing ``delays`` are the caller's own pure sleeps after the
        work, chained into the same event (transports fold the wire's
        fixed delays into their post this way; see
        :meth:`repro.sim.queues.PooledServer.execute`).
        """
        return self._pool.execute(x86_cost * self.factor, *delays)

    def scaled(self, x86_cost: float) -> float:
        """The actual duration this pool needs for ``x86_cost`` of work."""
        return x86_cost * self.factor

    @property
    def busy_time(self) -> float:
        """Cumulative core-seconds consumed."""
        return self._pool.busy_time

    @property
    def ops(self) -> int:
        """Operations executed."""
        return self._pool.ops

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Mean per-core busy fraction."""
        return self._pool.utilization(elapsed)

    def backlog(self) -> float:
        """Seconds until a core frees up (0 when any core is idle)."""
        return self._pool.backlog()

    def attach_stats(self, stats) -> None:
        """Attach a telemetry station (in-flight work items, Little's law)."""
        self._pool.attach_stats(stats)


class SerializedSection:
    """A host-wide serialized code path (lock, single progress thread).

    Costs scale by the host's ``lock_factor`` — serialized sections degrade
    more than parallel code on the DPU's Arm complex (contended atomics,
    smaller LLC), which is what produces the BlueField RDMA small-I/O gap
    in Fig. 5d.
    """

    __slots__ = ("env", "name", "factor", "_server")

    def __init__(self, env: Environment, name: str, lock_factor: float = 1.0,
                 wait_name: Optional[str] = None) -> None:
        self.env = env
        self.name = name
        self.factor = float(lock_factor)
        # ``wait_name`` lets a section share a blame bucket with the pool
        # it stands in for (e.g. the BF3 tcp_stack section and the Arm RX
        # core pool both attribute to "dpu.arm_rx").
        self._server = FifoServer(env, name=wait_name or name)

    def enter(self, x86_cost: float) -> Timeout:
        """Pass through the section, paying ``x86_cost`` (scaled) serially."""
        return self._server.serve(x86_cost * self.factor)

    @property
    def busy_time(self) -> float:
        """Cumulative serialized seconds."""
        return self._server.busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the section was occupied."""
        return self._server.utilization(elapsed)
