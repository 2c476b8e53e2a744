"""Experiment builders: one function per paper-figure cell.

Each call constructs a *fresh* simulated testbed, runs the FIO spec, and
returns the measured :class:`~repro.workload.fio.FioResult` (for Fig. 5,
inside a :class:`Fig5Run`) — cells of a sweep are completely independent,
like separate runs on the physical testbed.

* :func:`run_fig3_cell` — local FIO / io_uring device baselines (Fig. 3).
* :func:`run_fig4_cell` — remote SPDK NVMe-oF, TCP vs RDMA, pinned core
  counts on both ends (Fig. 4).
* :func:`run_fig5_cell` — end-to-end ROS2/DFS, host vs DPU client
  (Fig. 5): the one entry point for every Fig. 5 cell, bare or with
  spans, the wait tracer, the telemetry sampler or a fault plan attached.
  It returns a :class:`Fig5Run` (result, system, spec and the attached
  instruments).
* :func:`run_ros2_fio` — the generic ROS2 runner the Fig. 5 cells and the
  ablation benches share (system bootstrap, file creation, pre-fill for
  reads, FIO drive).
* :func:`default_iodepth`, :func:`default_numjobs`, :func:`default_runtime`
  and :func:`default_file_size` — the per-block-size Fig. 5 defaults the
  CLI and the campaign executor share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core import Ros2Config, Ros2System
from repro.hw.platform import make_paper_testbed
from repro.hw.specs import MIB
from repro.net import Fabric
from repro.sim import Environment, Sampler, SpanCollector
from repro.storage import BlockDevice, IoUringEngine, NvmfInitiator, NvmfTarget
from repro.workload.fio import FioJobSpec, FioResult, run_fio

if TYPE_CHECKING:
    from repro.core.telemetry import SystemTimeline
    from repro.faults.plan import FaultPlan, FaultStats
    from repro.sim.waits import WaitTracer

__all__ = [
    "run_fig3_cell",
    "run_fig4_cell",
    "run_fig5_cell",
    "doctor_stations",
    "Fig5Run",
    "run_ros2_fio",
    "default_iodepth",
    "default_numjobs",
    "default_runtime",
    "default_file_size",
]


def default_iodepth(bs: int) -> int:
    """The queue depths the paper's FIO configurations imply: deep queues
    for small blocks (IOPS tests), shallow for streaming."""
    return 16 if bs < 64 * 1024 else 8


def default_numjobs(bs: int) -> int:
    """Fig. 5 FIO numjobs: 8 streaming jobs at >= 1 MiB, 16 below."""
    return 8 if bs >= MIB else 16


def default_runtime(bs: int, quick: bool = False) -> float:
    """Fig. 5 measured window in simulated seconds.

    ``quick`` is the CI window (``doctor --quick``, campaign cells);
    otherwise large blocks get a longer window (see :func:`run_fig5_cell`).
    """
    if quick:
        return 0.02
    return 0.15 if bs >= MIB else 0.03


def default_file_size(bs: int) -> int:
    """Fig. 5 per-job file region (FIO ``size``)."""
    return 64 * MIB if bs >= MIB else 48 * MIB


def _seed_kwargs(seed: Optional[int]) -> dict:
    """Per-cell RNG override, leaving the FioJobSpec default in one place.

    The campaign executor derives a seed from the cell key (``"seed":
    "auto"``), so a cell's offset streams depend only on its config —
    never on which worker ran it or in what order.
    """
    return {} if seed is None else {"seed": int(seed)}


# ---------------------------------------------------------------------------
# Fig. 3 — local io_uring
# ---------------------------------------------------------------------------

def run_fig3_cell(
    rw: str,
    bs: int,
    numjobs: int,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: float = 0.03,
    collector: Optional[SpanCollector] = None,
    seed: Optional[int] = None,
) -> FioResult:
    """One point of Fig. 3: local FIO with the IO_URING engine."""
    env = Environment()
    top = make_paper_testbed(env, client="host", n_ssds=n_ssds)
    engine = IoUringEngine(top.server, BlockDevice(top.server.nvme))
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=numjobs,
        iodepth=iodepth or default_iodepth(bs),
        runtime=runtime, ramp_time=runtime / 4,
        size=512 * MIB,
        **_seed_kwargs(seed),
    )
    return run_fio(env, engine, spec, collector=collector)


# ---------------------------------------------------------------------------
# Fig. 4 — remote SPDK NVMe-oF
# ---------------------------------------------------------------------------

class _MultiQpAdapter:
    """SPDK-style one-qpair-per-core: contexts round-robin over initiators."""

    def __init__(self, initiators) -> None:
        self.initiators = list(initiators)
        self._next = 0
        self._owner = {}

    def new_context(self, name=None):
        init = self.initiators[self._next % len(self.initiators)]
        self._next += 1
        ctx = init.new_context(name)
        self._owner[id(ctx)] = init
        return ctx

    def submit(self, ctx, offset, nbytes, is_write, trace=None):
        return self._owner[id(ctx)].submit(ctx, offset, nbytes, is_write,
                                           trace=trace)


def run_fig4_cell(
    provider: str,
    rw: str,
    bs: int,
    client_cores: int,
    server_cores: int,
    n_ssds: int = 1,
    iodepth: int = 32,
    runtime: float = 0.03,
    collector: Optional[SpanCollector] = None,
    seed: Optional[int] = None,
) -> FioResult:
    """One heatmap cell of Fig. 4: remote SPDK, pinned core counts.

    One NVMe-oF qpair (channel + initiator) per client core, one FIO job
    per core, ``iodepth`` commands in flight per qpair — the standard
    ``spdk_nvme_perf`` shape.
    """
    env = Environment()
    top = make_paper_testbed(
        env, client="host", n_ssds=n_ssds,
        client_cores=client_cores, server_cores=server_cores,
    )
    fabric = Fabric(env)
    device = BlockDevice(top.server.nvme)
    target = NvmfTarget(top.server, device)
    initiators = []
    for _ in range(client_cores):
        ch = fabric.connect(top.client, top.server, provider)
        target.serve(ch)
        initiators.append(NvmfInitiator(top.client, ch).start())
    adapter = _MultiQpAdapter(initiators)
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=client_cores, iodepth=iodepth,
        runtime=runtime, ramp_time=runtime / 4, size=512 * MIB,
        **_seed_kwargs(seed),
    )
    return run_fio(env, adapter, spec, collector=collector)


# ---------------------------------------------------------------------------
# Fig. 5 — end-to-end ROS2 / DFS
# ---------------------------------------------------------------------------

class _MultiSessionAdapter:
    """One ROS2 session (own channel/PD/QP/TCP connection) per FIO job.

    FIO's DFS engine forks one process per job, each with its own DAOS
    client context and hence its own fabric connection — which is what
    lets host TCP aggregate past the single-stream ceiling on 4 SSDs.
    """

    def __init__(self, ports_and_fhs) -> None:
        self._ports = list(ports_and_fhs)  # [(port, fh), ...]
        self._next = 0
        self._owner = {}

    def new_context(self, name=None):
        port, fh = self._ports[self._next % len(self._ports)]
        self._next += 1
        ctx = port.new_context(name)
        self._owner[id(ctx)] = (port, fh)
        return ctx

    def submit(self, ctx, offset, nbytes, is_write, trace=None):
        port, fh = self._owner[id(ctx)]
        if is_write:
            return port.write(ctx, fh, offset, nbytes=nbytes, trace=trace)
        return port.read(ctx, fh, offset, nbytes, trace=trace)


def run_ros2_fio(
    system: Ros2System,
    spec: FioJobSpec,
    path: str = "/bench/fio.dat",
    prefill: Optional[bool] = None,
    tenant_policy: Optional[dict] = None,
    sessions_per_job: bool = True,
    collector: Optional[SpanCollector] = None,
) -> FioResult:
    """Bootstrap ``system``, create the test file, pre-fill it for read
    workloads, and drive ``spec`` through ROS2 data ports.

    ``sessions_per_job=True`` mirrors FIO's one-process-per-job DFS
    engine: every job gets its own session (channel, PD/QP or TCP
    connection); with False all jobs share one session."""
    env = system.env
    token = system.register_tenant("fio", **(tenant_policy or {}))
    if prefill is None:
        prefill = not spec.is_write
    span = spec.numjobs * spec.size
    n_sessions = spec.numjobs if sessions_per_job else 1

    def setup(env):
        yield from system.start()
        first = yield from system.open_session(token)
        parent = path.rsplit("/", 1)[0]
        if parent:
            yield from first.mkdir(parent)
        fh0 = yield from first.create(path)
        ports = [(first.data_port(), fh0)]
        for _ in range(n_sessions - 1):
            s = yield from system.open_session(token)
            fh = yield from s.open(path)
            ports.append((s.data_port(), fh))
        if prefill:
            # Lay the file out in whole chunks so reads hit real extents,
            # 32 writers wide (setup time, excluded from measurement).
            port0 = ports[0][0]
            ctx_pool = [port0.new_context(f"prefill{i}") for i in range(32)]
            chunk = MIB
            offsets = list(range(0, span, chunk))

            def writer(env, ctx, start_idx):
                for i in range(start_idx, len(offsets), len(ctx_pool)):
                    yield from port0.write(ctx, fh0, offsets[i], nbytes=chunk)

            writers = [
                env.process(writer(env, ctx, i)) for i, ctx in enumerate(ctx_pool)
            ]
            yield env.all_of(writers)
        return ports

    p = env.process(setup(env))
    env.run(until=p)
    ports = p.value
    adapter = _MultiSessionAdapter(ports)
    return run_fio(env, adapter, spec, collector=collector)


def doctor_stations(system: Ros2System) -> list:
    """Independently-counted station occupancies for the utilization law.

    Walks the same servers :func:`repro.core.telemetry.install_probes`
    probes and reads each one's own ``busy_time`` counter.  Stations that
    share a blame name (the BF3 Arm RX core pool and the ``tcp_stack``
    serialized section both report as ``dpu.arm_rx``) are summed into one
    record — matching how the wait tracer aggregates them — so the
    cross-check compares like with like.
    """
    from repro.sim.doctor import Station

    acc: dict = {}

    def add(name, busy, capacity=1):
        if name is None:
            return
        rec = acc.get(name)
        if rec is None:
            acc[name] = [float(busy), int(capacity)]
        else:
            rec[0] += float(busy)
            rec[1] += int(capacity)

    seen = set()
    for node in [system.client_node, system.server_node, system.launcher_node]:
        if node.name in seen:
            continue
        seen.add(node.name)
        add(node.cpu.name, node.cpu.busy_time, node.cpu.n_cores)
        rx = node.tcp_rx_cpu
        add(rx.name, rx.busy_time, rx.n_cores)
        node.lock("tcp_stack")
        for sec in node._locks.values():
            add(sec.wait_name, sec.busy_time, 1)
        port = getattr(node, "port", None)
        if port is not None:
            add(port.tx.name, port.tx.busy_time, 1)
            add(port.rx.name, port.rx.busy_time, 1)
    for dev in system.server_node.nvme.devices:
        add(f"nvme.ssd{dev.index}", dev.busy_time, 1)
    for target in system.engine.targets:
        xs = target.xstream
        add(xs.name, xs.busy_time, 1)
    return [Station(name=n, busy_time=b, capacity=c)
            for n, (b, c) in sorted(acc.items())]


#: Telemetry sampler ticks per FIO window (ramp + measured), a resolution
#: at which the Little's-law self-check holds within a few percent while
#: the bounded series still cover multi-second runs.
SAMPLER_TICKS_PER_WINDOW = 400

#: Simulated time run after the FIO stop flag when the sampler is
#: attached, as a fraction of the measured window: in-flight operations
#: complete and queues empty, giving the timeline its ``drain`` phase.
DRAIN_FRACTION = 0.25


@dataclass
class Fig5Run:
    """One Fig. 5 cell: its measurements plus whatever was attached.

    ``collector`` holds the sampled request spans; ``tracer`` the
    :class:`~repro.sim.waits.WaitTracer` records and ``stations`` the
    :func:`doctor_stations` walk (both with ``waits=True``); ``sampler``
    and ``timeline`` the continuous telemetry; ``fault_stats`` the
    injector's :class:`~repro.faults.plan.FaultStats` after the drain to
    an empty heap.  Instruments that were not attached are ``None``.
    """

    result: FioResult
    system: Ros2System
    spec: FioJobSpec
    collector: Optional[SpanCollector] = None
    tracer: Optional[WaitTracer] = None
    sampler: Optional[Sampler] = None
    timeline: Optional[SystemTimeline] = None
    stations: Optional[list] = None
    fault_stats: Optional[FaultStats] = None


def run_fig5_cell(
    provider: str,
    client: str,
    rw: str,
    bs: int,
    numjobs: int,
    *,
    n_ssds: int = 1,
    iodepth: Optional[int] = None,
    runtime: Optional[float] = None,
    seed: Optional[int] = None,
    n_targets: Optional[int] = None,
    sample_every: Optional[int] = None,
    waits: bool = False,
    sampler: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    tie_seed: Optional[int] = None,
) -> Fig5Run:
    """One point of Fig. 5: FIO/DFS end-to-end on a fresh ROS2 testbed.

    Large-block runs need a longer measured window (:func:`default_runtime`):
    under the DPU's deep RX queues, per-I/O latency reaches milliseconds
    and a too-short window under-reports steady-state throughput.

    Everything below is attached only on request; spans, the wait tracer
    and the sampler never change the simulated result:

    * ``sample_every`` — request spans, 1-in-N (``None``: no tracing);
    * ``waits`` — the bottleneck doctor's inputs: a
      :class:`~repro.sim.waits.WaitTracer` installed before anything runs
      (so its aggregates and each station's ``busy_time`` cover the same
      window), per-operation latency for the SLO gates, and the
      :func:`doctor_stations` walk taken at the end;
    * ``sampler`` — the standard telemetry probes, sampling from *t = 0*;
      after the FIO stop flag the run continues for
      ``DRAIN_FRACTION x runtime`` so the
      :class:`~repro.core.telemetry.SystemTimeline` covers warmup, steady
      state and drain;
    * ``fault_plan`` — a :class:`~repro.faults.plan.FaultPlan` installed
      before the system is built (every channel, engine and node
      self-registers with the injector; :func:`~repro.workload.fio.run_fio`
      arms it when the measured window opens).  Afterwards the event heap
      is drained *to empty*, so every in-flight operation — including ones
      mid-retry-backoff — either completes or fails and conservation is
      exact;
    * ``tie_seed`` — race-sanitizer mode: same-time, same-priority events
      pop in a seeded pseudo-random permutation instead of FIFO (see
      :func:`repro.sim.core.tie_scramble`).
    """
    env = Environment(tie_seed=tie_seed)
    injector = fault_plan.install(env) if fault_plan is not None else None
    system = Ros2System(env, Ros2Config(
        transport=provider, client=client, n_ssds=n_ssds,
        n_targets=n_targets, data_mode=False,
    ))
    if runtime is None:
        runtime = default_runtime(bs)
    spec = FioJobSpec(
        rw=rw, bs=bs, numjobs=numjobs,
        iodepth=iodepth or default_iodepth(bs),
        runtime=runtime, ramp_time=runtime / 3, size=default_file_size(bs),
        record_latency=waits,
        **_seed_kwargs(seed),
    )
    tracer = None
    if waits:
        from repro.sim.waits import WaitTracer

        tracer = WaitTracer(env)
        tracer.install()
    probes = None
    if sampler:
        from repro.core.telemetry import observe

        probes = observe(system, interval=(spec.ramp_time + spec.runtime)
                         / SAMPLER_TICKS_PER_WINDOW)
    collector = (SpanCollector(env, sample_every=sample_every)
                 if sample_every else None)
    run = Fig5Run(result=run_ros2_fio(system, spec, collector=collector),
                  system=system, spec=spec, collector=collector,
                  tracer=tracer, sampler=probes)
    if probes is not None:
        from repro.core.telemetry import SystemTimeline, snapshot

        t_end = env.now
        env.run(until=t_end + spec.runtime * DRAIN_FRACTION)
        probes.stop()
        run.timeline = SystemTimeline(snapshot(system), probes)
        run.timeline.set_phases(warmup_end=t_end - spec.runtime,
                                steady_end=t_end)
    if injector is not None:
        # Lanes saw the stop flag but may be parked in backoff sleeps or
        # deadline waits; servers park on empty stores (no heap entries),
        # so running the heap dry terminates and settles every lane.
        env.run()
        injector.stats.degraded_reads = system.engine.degraded_reads
        run.fault_stats = injector.stats
    if waits:
        run.stations = doctor_stations(system)
    return run
