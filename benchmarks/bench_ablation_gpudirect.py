"""Ablation: GPUDirect RDMA placement vs DPU-DRAM staging (paper §3.5).

The paper leaves GPU placement as future work but specifies the design;
we implemented it, so this bench measures what it buys: read throughput
into GPU HBM with direct placement (server RDMA-writes into GPU memory)
vs the staged baseline (payload terminates in DPU DRAM, then crosses PCIe
into HBM), across GPU generations.
"""

import pytest
from conftest import CellCache, write_report

from repro.bench.report import Table
from repro.core import Ros2Config, Ros2System
from repro.core.gpudirect import GpuDirectPath, StagedGpuPath
from repro.hw.gpu import GpuDevice
from repro.hw.specs import GIB, GPU_BY_NAME, MIB
from repro.sim import Environment

CACHE = CellCache()

GPUS = ("A100", "H100", "B200")
MEASURE = 0.1
RAMP = 0.03


#: DPU DRAM available for payload staging in this scenario: the 30 GiB
#: BlueField DRAM is shared by many tenants; the GPU reader's buffer pool
#: is a small carve-out.  GPUDirect bypasses staging entirely (§3.5), so
#: only the staged baseline feels the pressure.
STAGING_BUDGET = 3 * MIB


def run_case(gpu_name: str, direct: bool):
    def _run():
        env = Environment()
        system = Ros2System(env, Ros2Config(transport="rdma", client="dpu", n_ssds=4))
        token = system.register_tenant("gpu")
        count = [0]

        def setup(env):
            yield from system.start()
            session = yield from system.open_session(token)
            fh = yield from session.create("/model.shard")
            port = session.data_port()
            ctx = port.new_context()
            # Lay out 512 MiB of model bytes (full staging budget for setup).
            for off in range(0, 512 * MIB, MIB):
                yield from port.write(ctx, fh, off, nbytes=MIB)
            # Now shrink the staging pool to the scenario's carve-out.
            from repro.core.data_plane import DataPlane

            system.service.data_plane = DataPlane(
                system.client_node, "rdma", staging_budget_bytes=STAGING_BUDGET
            )
            gpu = GpuDevice(env, GPU_BY_NAME[gpu_name])
            cls = GpuDirectPath if direct else StagedGpuPath
            return cls(system.service, session.session_id, gpu), port, fh

        p = env.process(setup(env))
        env.run(until=p)
        path, port, fh = p.value
        measure_from = env.now + RAMP

        def reader(env, lane):
            ctx = port.new_context()
            off = lane * 16 * MIB
            while True:
                yield from path.read(ctx, fh, off % (512 * MIB), MIB)
                off += MIB
                if env.now >= measure_from:
                    count[0] += 1

        for lane in range(16):
            env.process(reader(env, lane))
        env.run(until=measure_from)
        count[0] = 0
        env.run(until=measure_from + MEASURE)
        return count[0] * MIB / MEASURE

    return CACHE.get_or_run((gpu_name, direct), _run)


@pytest.mark.parametrize("gpu", GPUS)
@pytest.mark.parametrize("direct", [True, False], ids=["gpudirect", "staged"])
def test_gpu_path(benchmark, gpu, direct):
    rate = benchmark.pedantic(lambda: run_case(gpu, direct), rounds=1, iterations=1)
    assert rate > 0


def test_gpudirect_report(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    table = Table(
        "Ablation: GPU ingest from ROS2 under DPU-DRAM pressure "
        f"(staging pool {STAGING_BUDGET // MIB} MiB; RDMA, DPU client, "
        "4 SSDs, 1 MiB reads)",
        ["staged GiB/s", "GPUDirect GiB/s", "speedup"],
        row_header="GPU",
    )
    speedups = {}
    for gpu in GPUS:
        staged = run_case(gpu, False)
        direct = run_case(gpu, True)
        speedups[gpu] = direct / staged
        table.add_row(gpu, [f"{staged / GIB:.2f}", f"{direct / GIB:.2f}",
                            f"{speedups[gpu]:.2f}x"])

    lines = [
        f"[{'OK ' if all(s >= 1.0 for s in speedups.values()) else 'OUT'}] "
        "direct placement never loses to staging",
        f"[{'OK ' if max(speedups.values()) > 1.3 else 'OUT'}] "
        "bypassing DPU-DRAM staging wins clearly under memory pressure "
        f"(best {max(speedups.values()):.2f}x)",
        "note: with an unconstrained staging pool the two paths deliver the "
        "same throughput (PCIe Gen5 is not the bottleneck) - the gain is "
        "DRAM footprint and the removed copy, exactly as §3.5 argues.",
    ]
    text = table.render() + "\n\n" + "\n".join(lines)
    write_report(results_dir, "ablation_gpudirect.txt", text)
    print("\n" + text)
    assert all(s >= 1.0 for s in speedups.values())
    assert max(speedups.values()) > 1.3
