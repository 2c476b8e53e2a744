"""The benchmark's workloads and how one cell of each is built, run and checked.

Every workload is a Fig. 5 cell on the BlueField-3 (``dpu``) client with
one SSD, built only from the model's public constructors (``Ros2System``,
``Ros2Config``, ``FioJobSpec``, ``run_ros2_fio``, ``FaultPlan``,
``WaitTracer``, ``SpanCollector``).  Load is closed-loop: each of
``numjobs x iodepth`` FIO lanes issues its next IO only when the previous
one completes.

The seed feeds ``FioJobSpec.seed`` (random offsets) and the fault plan's
``seed_key`` (retry jitter); the model receives only those inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import repro.bench.runner as runner
from repro.bench.calibration import PAPER_BANDS
from repro.bench.runner import doctor_stations, run_ros2_fio
from repro.core import Ros2Config, Ros2System
from repro.faults.plan import FaultPlan
from repro.sim.core import Environment
from repro.sim.spans import SpanCollector
from repro.sim.waits import WaitTracer
from repro.workload.fio import FioJobSpec

MIB = 2**20

#: The p99 is reported only where at least ten samples lie beyond it.
MIN_LATENCY_SAMPLES = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    transport: str
    rw: str
    bs: int
    numjobs: int
    iodepth: int
    #: Measured FIO window in simulated seconds; the ramp is a third of it.
    runtime: float
    #: Per-job file region (FIO ``size``); reads pre-fill all of it.
    size: int
    #: ``PAPER_BANDS`` key the cell's throughput must fall in, and whether
    #: the band is in IOPS (``"iops"``) or bytes/second (``"bandwidth"``).
    band: Optional[Tuple[str, str]] = None
    #: Fault events (``FaultPlan`` config form); their presence also turns
    #: on the instruments and the drain to an empty heap.
    faults: Tuple[dict, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("dpu-tcp-4k-randread", "tcp", "randread", 4096, 16, 16,
             runtime=0.02, size=48 * MIB, band=("fig5.dpu.tcp.4k", "iops")),
    # 0.2 s of window gives > 1000 IOs, so the p99 has ten samples beyond it.
    Workload("dpu-rdma-1m-read", "rdma", "read", MIB, 8, 8,
             runtime=0.2, size=64 * MIB,
             band=("fig5.rdma.read.1mib.1ssd", "bandwidth")),
    Workload("dpu-rdma-4k-randwrite", "rdma", "randwrite", 4096, 16, 16,
             runtime=0.02, size=48 * MIB),
    # The chaos_ci QP-break cell: the client's QPs break halfway through
    # the window and refuse reconnection for a tenth of it.
    Workload("dpu-rdma-4k-qpbreak", "rdma", "randread", 4096, 16, 16,
             runtime=0.02, size=48 * MIB,
             faults=({"kind": "qp_break", "target": "dpu.qp",
                      "at": 0.01, "duration": 0.002},)),
)}


@dataclass
class Cell:
    """One freshly built testbed, ready to run."""

    env: Environment
    system: Ros2System
    spec: FioJobSpec
    injector: object = None
    collector: Optional[SpanCollector] = None


def build_cell(w: Workload, seed: int) -> Cell:
    """Construct the testbed for ``w`` (no simulated time passes)."""
    env = Environment()
    injector = None
    if w.faults:
        plan = FaultPlan.from_config({"events": list(w.faults),
                                      "seed_key": f"simbench-{seed}"})
        # Installed before the system is built so every channel registers.
        injector = plan.install(env)
    system = Ros2System(env, Ros2Config(transport=w.transport, client="dpu",
                                        n_ssds=1))
    spec = FioJobSpec(rw=w.rw, bs=w.bs, numjobs=w.numjobs, iodepth=w.iodepth,
                      runtime=w.runtime, ramp_time=w.runtime / 3, size=w.size,
                      record_latency=True, seed=seed)
    collector = None
    if w.faults:
        WaitTracer(env).install()
        collector = SpanCollector(env, sample_every=20)
    return Cell(env, system, spec, injector, collector)


@dataclass
class CellRun:
    """Host timings and simulated outputs of one cell."""

    setup_s: float
    drive_s: float
    cell_s: float
    #: Simulated outputs; repeats of one seed must match exactly.
    outputs: dict
    #: Station busy times (simulated seconds) at drive start and end;
    #: collected only for the traced run.
    stations: Tuple[dict, dict] = ({}, {})


def _stations(system: Ros2System) -> Dict[str, Tuple[float, int]]:
    return {s.name: (s.busy_time, s.capacity) for s in doctor_stations(system)}


def run_cell(w: Workload, seed: int,
             on_drive: Optional[Callable[[Environment, bool], None]] = None) -> CellRun:
    """Build and run one cell, timing set-up and the FIO drive apart.

    The drive is split from set-up by wrapping the ``run_fio`` call that
    ``run_ros2_fio`` makes; ``on_drive(env, True)``/``on_drive(env, False)`` bracket
    the drive for the layer tracer, which also gets the stations' busy
    times.
    """
    marks: Dict[str, object] = {}
    inner = runner.run_fio

    def drive(env, *args, **kwargs):
        if on_drive is not None:
            marks["stations0"] = _stations(cell.system)
        marks["events0"] = env.events_processed
        marks["t0"] = time.perf_counter()
        if on_drive is not None:
            on_drive(env, True)
        try:
            return inner(env, *args, **kwargs)
        finally:
            if on_drive is not None:
                on_drive(env, False)
            marks["t1"] = time.perf_counter()
            marks["events1"] = env.events_processed
            if on_drive is not None:
                marks["stations1"] = _stations(cell.system)

    t_start = time.perf_counter()
    cell = build_cell(w, seed)
    runner.run_fio = drive
    try:
        result = run_ros2_fio(cell.system, cell.spec, collector=cell.collector)
    finally:
        runner.run_fio = inner
    if w.faults:
        # Drain: lanes parked in backoff or deadline waits settle, so
        # every submitted operation has completed or failed.
        cell.env.run()
    t_end = time.perf_counter()

    lat = result.latency
    outputs = {
        "total_ios": result.total_ios,
        "errors": result.errors,
        "iops": result.iops,
        "bandwidth": result.bandwidth,
        "lat_count": lat["count"],
        "lat_p50": lat["p50"],
        "lat_p99": lat["p99"],
        "drive_events": marks["events1"] - marks["events0"],
        "drive_sim_s": cell.spec.ramp_time + cell.spec.runtime,
    }
    if cell.injector is not None:
        outputs["faults"] = cell.injector.stats.to_dict()
    return CellRun(
        setup_s=marks["t0"] - t_start,
        drive_s=marks["t1"] - marks["t0"],
        cell_s=t_end - t_start,
        outputs=outputs,
        stations=(marks.get("stations0", {}), marks.get("stations1", {})),
    )


def check_outputs(w: Workload, outputs: dict) -> List[str]:
    """Output checks for one cell; returns the failures (empty when all pass)."""
    problems = []
    if w.band is not None:
        key, field = w.band
        band = PAPER_BANDS[key]
        value = outputs[field]
        if not band.holds(value):
            problems.append(f"{field} {value:.6g} outside {key} "
                            f"[{band.lo:.6g}, {band.hi:.6g}] {band.unit}")
    if outputs["lat_count"] < MIN_LATENCY_SAMPLES:
        problems.append(f"only {outputs['lat_count']} latency samples; the p99 "
                        f"needs {MIN_LATENCY_SAMPLES}")
    stats = outputs.get("faults")
    if stats is not None:
        lost = stats["submitted"] - stats["completed"] - stats["failed"]
        if lost:
            problems.append(f"conservation: submitted={stats['submitted']} "
                            f"completed={stats['completed']} "
                            f"failed={stats['failed']} lost={lost}")
    elif outputs["errors"]:
        problems.append(f"{outputs['errors']} IO errors without a fault plan")
    return problems


def utilisation(run: CellRun, station: str) -> float:
    """Simulated busy share of ``station`` over the FIO drive."""
    before, after = run.stations
    busy0, _ = before.get(station, (0.0, 1))
    busy1, capacity = after.get(station, (0.0, 1))
    return (busy1 - busy0) / (run.outputs["drive_sim_s"] * capacity)
