"""Serial execution contexts for submission paths.

An FIO job, an SPDK reactor, or a DAOS engine xstream is one thread: its
CPU work is inherently serial even when the node has idle cores, and that
serialism — not core count — is what bounds per-job IOPS in Fig. 3
(~80 K per job at ~11.5 us/op).  :class:`JobThread` captures exactly that:
a FIFO server the engine charges per-op CPU costs to, while device and
network phases overlap freely across in-flight operations.

All the paper's configurations run at most as many job threads as the
node has cores (16 jobs on the 16-core DPU, up to 16 on the 48-core
host), so thread-level serialization is the accurate constraint and no
additional core-contention stage is modeled for client submission work.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.core import Environment, Wake
from repro.sim.queues import FifoServer

__all__ = ["JobThread"]


class JobThread:
    """One serial submission thread, with an architecture speed factor."""

    __slots__ = ("env", "name", "factor", "_server")

    def __init__(self, env: Environment, name: str, factor: float = 1.0) -> None:
        self.env = env
        self.name = name
        #: Multiplier applied to every x86-baseline cost (host cycle factor).
        self.factor = float(factor)
        self._server = FifoServer(env, name=name)

    def run(self, x86_cost: float) -> Wake:
        """Execute ``x86_cost`` seconds of baseline work on this thread."""
        return self._server.serve(x86_cost * self.factor)

    @property
    def busy_time(self) -> float:
        """Cumulative seconds of thread CPU time."""
        return self._server.busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the thread was executing."""
        return self._server.utilization(elapsed)
